"""Canonical linear programs with named rows/columns, duals, and a KKT audit.

This module is the numeric backbone of the toolkit.  A ``LinearProgram`` is a
named, bounded-variable LP (maximize or minimize), built by hand through
``add_column``/``add_row`` or, as ``opf.build_opf`` builds each hour, given as
arrays over a shared column layout whose name dicts are built only when
read; ``solve`` runs the built-in bounded-variable simplex (see
:mod:`flexhedge.simplex`) and returns an ``LpSolution`` carrying primal values,
row duals, reduced costs and the final basis.  ``verify_kkt`` recomputes
optimality residuals from the program and the solution alone, independent of
any solver state.

Sign convention for duals (fixed across the whole package):
for a *maximize* problem, duals of ``<=`` rows are >= 0, duals of ``>=`` rows
are <= 0 and equality-row duals are free.  For a *minimize* problem the
inequalities swap sign.  Reduced costs follow the same orientation: at an
optimum of a maximize problem, a column sitting at its lower bound has a
reduced cost <= 0 and a column at its upper bound has a reduced cost >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
MAX_ITERATIONS = 10_000

INF = math.inf

RELATIONS = ("<=", "=", ">=")


class MalformedProgramError(ValueError):
    """The program violates a structural invariant (bad names, bounds, refs)."""


class SolverFailureError(RuntimeError):
    """The simplex hit its iteration cap (never expected with Bland's rule), a
    singular basis or a value that overflows a float."""


class UnknownRowError(KeyError):
    """A dual was requested for a row that does not exist."""


@dataclass
class _Column:
    name: str
    lower: float
    upper: float
    objective: float


@dataclass
class _Row:
    name: str
    coeffs: dict[str, float]
    relation: str
    rhs: float


class LinearProgram:
    """A bounded-variable LP, built incrementally through ``add_column``/``add_row``
    or given whole as arrays over a column layout (``arrays``).

    The objective carries an optional constant term so fixed cost/utility
    offsets shift the objective value without touching the optimizer.
    ``start``, if set, is a ``(basis, nonbasic_at_upper)`` pair of name tuples,
    as an ``LpSolution`` reports them, that the simplex tries before a cold
    start; it never changes the program, so ``validate``, ``to_lp_format``
    and ``dual_program`` ignore it.

    ``arrays``, if set, is ``(layout, lo, up, c)``: the program as the
    read-only record of a column layout (``simplex.Layout``: its dense
    matrix, names, rows with their right-hand sides and crash basis), which
    programs of one layout share, and the bounds and costs of its ``[A | I]``
    columns, which a solve reads and nothing writes.  The first read of
    ``columns`` or ``rows`` builds them from it and clears it; from then on
    the dicts are the program, which each solve compiles afresh, so an edit
    in place reaches the next solve.
    """

    def __init__(self, sense: str = "maximize", name: str = "lp"):
        if sense not in ("maximize", "minimize"):
            raise MalformedProgramError(f"sense must be maximize|minimize, got {sense!r}")
        self.sense = sense
        self.name = name
        self._columns: dict[str, _Column] = {}
        self._rows: dict[str, _Row] = {}
        self.constant = 0.0
        self.start: tuple[tuple[str, ...], tuple[str, ...]] | None = None
        self.arrays = None

    @property
    def columns(self) -> dict[str, _Column]:
        if self.arrays is not None:
            self._read_arrays()
        return self._columns

    @property
    def rows(self) -> dict[str, _Row]:
        if self.arrays is not None:
            self._read_arrays()
        return self._rows

    def _read_arrays(self) -> None:
        layout, lo, up, c = self.arrays  # zip stops at the columns, before the slacks
        self._columns = {name: _Column(name, lower, upper, cost) for name, lower, upper, cost
                         in zip(layout.columns, lo.tolist(), up.tolist(), c.tolist())}
        self._rows = {name: _Row(name, dict(coeffs), relation, float(rhs))
                      for name, coeffs, relation, rhs in layout.specs}
        self.arrays = None

    def add_column(self, name: str, lower: float = 0.0, upper: float = INF,
                   objective: float = 0.0) -> None:
        if name in self.columns:
            raise MalformedProgramError(f"duplicate column name {name!r}")
        self.columns[name] = _Column(name, float(lower), float(upper), float(objective))

    def add_row(self, name: str, coeffs: dict[str, float], relation: str,
                rhs: float) -> None:
        if name in self.rows:
            raise MalformedProgramError(f"duplicate row name {name!r}")
        if relation not in RELATIONS:
            raise MalformedProgramError(f"relation must be one of {RELATIONS}, got {relation!r}")
        self.rows[name] = _Row(name, dict(coeffs), relation, float(rhs))

    def validate(self) -> list[str]:
        """Return every violation in the bounds, costs, row coefficients and
        right-hand sides; an empty list means well-formed."""
        problems = []
        for col in self.columns.values():
            if not col.lower <= col.upper:
                problems.append(f"column {col.name!r}: lower {col.lower} > upper {col.upper}")
            if math.isnan(col.lower) or math.isnan(col.upper):
                problems.append(f"column {col.name!r}: NaN in bounds")
            if not math.isfinite(col.objective):
                problems.append(f"column {col.name!r}: non-finite objective {col.objective}")
        for row in self.rows.values():
            for cname, coef in row.coeffs.items():
                if cname not in self.columns:
                    problems.append(f"row {row.name!r} references unknown column {cname!r}")
                if not math.isfinite(coef):
                    problems.append(
                        f"row {row.name!r}: non-finite coefficient {coef} on column {cname!r}")
            if not math.isfinite(row.rhs):
                problems.append(f"row {row.name!r}: non-finite right-hand side {row.rhs}")
        return problems


@dataclass(frozen=True)
class LpSolution:
    """Outcome of a solve.  Primal/dual dictionaries are keyed by name.

    ``basis`` lists, per row, the name of the basic variable for that row
    (slack variables appear as ``slack:<row>``); together with
    ``nonbasic_at_upper`` it fully determines the vertex, so the solution can
    be rebuilt from the program alone (see ``simplex.solution_from_basis``).
    ``degenerate``: a basic column sits at a bound, so the duals need not be
    unique.
    """
    status: str  # "optimal" | "infeasible" | "unbounded"
    primal: dict[str, float]
    duals: dict[str, float]
    reduced_costs: dict[str, float]
    objective_value: float
    basis: tuple[str, ...]
    nonbasic_at_upper: tuple[str, ...] = ()
    degenerate: bool = False
    iterations: int = 0


def solve(lp: LinearProgram) -> LpSolution:
    """Solve ``lp`` with the built-in simplex; deterministic for identical input."""
    problems = lp.validate()
    if problems:
        raise MalformedProgramError("; ".join(problems))
    from . import simplex
    return simplex.solve_program(lp)


def dual_of(sol: LpSolution, row_name: str) -> float:
    """Dual value of a row under the package-wide sign convention."""
    if sol.status != "optimal":
        raise ValueError(f"duals undefined for status {sol.status!r}")
    if row_name not in sol.duals:
        raise UnknownRowError(row_name)
    return sol.duals[row_name]


@dataclass(frozen=True)
class KktReport:
    """Max-norm residuals of the four optimality conditions.

    All four are recomputed from the program and the solution values only:

    * ``stationarity``      |c_j - y.A_j - d_j| using the *reported* reduced costs
    * ``primal_feasibility``  row and bound violations of the primal point
    * ``dual_feasibility``    sign violations of row duals plus, with reduced
      costs recomputed from the duals, sign violations relative to which bound
      each column sits at (interior columns must price out to zero)
    * ``complementarity``     |dual| x |slack| products for rows and bounds
    """
    stationarity: float
    primal_feasibility: float
    dual_feasibility: float
    complementarity: float

    @property
    def max_residual(self) -> float:
        return max(self.stationarity, self.primal_feasibility,
                   self.dual_feasibility, self.complementarity)

    def within(self, tol: float = 1e-6) -> bool:
        return self.max_residual <= tol


def verify_kkt(lp: LinearProgram, sol: LpSolution) -> KktReport:
    if sol.status != "optimal":
        raise ValueError("verify_kkt requires an optimal solution")
    sign = 1.0 if lp.sense == "maximize" else -1.0
    x = sol.primal
    y = sol.duals

    stationarity = 0.0
    primal = 0.0
    dual = 0.0
    comp = 0.0

    for row in lp.rows.values():
        ax = sum(c * x[n] for n, c in row.coeffs.items())
        if row.relation == "<=":
            primal = max(primal, ax - row.rhs)
            dual = max(dual, -sign * y[row.name])
            comp = max(comp, abs(y[row.name]) * abs(row.rhs - ax))
        elif row.relation == ">=":
            primal = max(primal, row.rhs - ax)
            dual = max(dual, sign * y[row.name])
            comp = max(comp, abs(y[row.name]) * abs(ax - row.rhs))
        else:
            primal = max(primal, abs(ax - row.rhs))

    for col in lp.columns.values():
        xj = x[col.name]
        primal = max(primal, col.lower - xj, xj - col.upper)
        # reduced cost recomputed from the duals alone
        d_hat = col.objective - sum(
            row.coeffs[col.name] * y[row.name]
            for row in lp.rows.values() if col.name in row.coeffs
        )
        stationarity = max(stationarity, abs(d_hat - sol.reduced_costs[col.name]))
        at_lower = xj <= col.lower + FEAS_TOL
        at_upper = xj >= col.upper - FEAS_TOL
        if at_lower and at_upper:
            continue  # fixed column, any reduced cost is admissible
        if at_lower:
            dual = max(dual, sign * d_hat)
        elif at_upper:
            dual = max(dual, -sign * d_hat)
        else:
            dual = max(dual, abs(d_hat))
        if col.lower > -INF and not at_lower:
            comp = max(comp, max(0.0, -sign * d_hat) * (xj - col.lower))
        if col.upper < INF and not at_upper:
            comp = max(comp, max(0.0, sign * d_hat) * (col.upper - xj))

    return KktReport(stationarity, primal, dual, comp)


def dual_program(lp: LinearProgram) -> LinearProgram:
    """Mechanically derive the full dual of a bounded-variable LP.

    Finite column bounds are treated as rows of the primal, so each finite
    lower bound contributes a dual variable ``lo:<col>`` and each finite upper
    bound a dual variable ``up:<col>``.  Every primal column becomes an
    equality row of the dual.  Strong duality then holds by construction
    whenever both programs are solvable.
    """
    maximizing = lp.sense == "maximize"
    dual = LinearProgram(sense="minimize" if maximizing else "maximize",
                         name=f"dual({lp.name})")
    dual.constant = lp.constant

    for row in lp.rows.values():
        if row.relation == "=":
            lo, up = -INF, INF
        elif row.relation == "<=":
            lo, up = (0.0, INF) if maximizing else (-INF, 0.0)
        else:
            lo, up = (-INF, 0.0) if maximizing else (0.0, INF)
        dual.add_column(f"y:{row.name}", lo, up, objective=row.rhs)

    for col in lp.columns.values():
        if col.lower > -INF:
            lo, up = ((-INF, 0.0) if maximizing else (0.0, INF))
            dual.add_column(f"lo:{col.name}", lo, up, objective=col.lower)
        if col.upper < INF:
            lo, up = ((0.0, INF) if maximizing else (-INF, 0.0))
            dual.add_column(f"up:{col.name}", lo, up, objective=col.upper)

    for col in lp.columns.values():
        coeffs = {}
        for row in lp.rows.values():
            if col.name in row.coeffs and row.coeffs[col.name] != 0.0:
                coeffs[f"y:{row.name}"] = row.coeffs[col.name]
        if col.lower > -INF:
            coeffs[f"lo:{col.name}"] = 1.0
        if col.upper < INF:
            coeffs[f"up:{col.name}"] = 1.0
        dual.add_row(f"col:{col.name}", coeffs, "=", col.objective)

    return dual


def to_lp_format(lp: LinearProgram) -> str:
    """Render the program in the industry-standard LP text format.

    Deterministic layout, coefficients printed with 12 significant digits, so
    any external LP tool can cross-check the built-in solver.
    """
    def num(v: float) -> str:
        if v == INF:
            return "+inf"
        if v == -INF:
            return "-inf"
        return format(v, ".12g")

    def term(coef: float, name: str, first: bool) -> str:
        if first and coef >= 0:
            return f"{num(coef)} {name}"
        sign = "-" if coef < 0 else "+"
        return f"{sign} {num(abs(coef))} {name}"

    zero = f"0 {next(iter(lp.columns))}" if lp.columns else "0"  # an empty sum

    def body(terms: list[tuple[float, str]]) -> str:
        return " ".join(term(c, n, i == 0) for i, (c, n) in enumerate(terms)) or zero

    lines = ["\\ " + lp.name]
    lines.append("Maximize" if lp.sense == "maximize" else "Minimize")
    lines.append(" obj: " + body([(c.objective, c.name) for c in lp.columns.values()
                                  if c.objective != 0.0]))
    lines.append("Subject To")
    for row in lp.rows.values():
        terms = [(c, n) for n, c in row.coeffs.items() if c != 0.0]
        lines.append(f" {row.name}: {body(terms)} {row.relation} {num(row.rhs)}")
    lines.append("Bounds")
    for col in lp.columns.values():
        lo, up = col.lower, col.upper
        if lo == -INF and up == INF:
            lines.append(f" {col.name} free")
        elif lo == up:
            lines.append(f" {col.name} = {num(lo)}")
        else:
            lines.append(f" {num(lo)} <= {col.name} <= {num(up)}")
    lines.append("End")
    return "\n".join(lines) + "\n"
