"""Dense bounded-variable simplex with Dantzig pricing and basis-based duals.

The solver works on an internal minimize form: one slack column per row turns
every relation into an equality, so the working system is ``[A | I] x = b``
with individual bounds on all columns (``<=`` rows get slack bounds [0, inf),
``>=`` rows (-inf, 0], equalities [0, 0]).  A solve reads a program by one
path (``program_arrays``): its column layout, a read-only ``Layout`` that
holds ``[A | I]``, the names, the right-hand sides and the bounds and costs
its programs start from, and the program's bounds and costs over it.  They
are the program's own arrays (``LinearProgram.arrays``, as ``opf.build_opf``
gives each hour over a layout its hours share) while it is still given as
arrays, else its dicts compiled afresh into a layout and that layout's own
arrays, so a solve always sees the program as it stands.  Each solve reads
them into its one ``_State``, which ``solution_from_basis`` builds too;
``cost_ranges`` reads them with the same rest rule (``_resting_at_upper``).

A solve tries the program's own start (``LinearProgram.start``), then the
slack basis ``(slack names, ())``, in one loop with one rule: it passes over
a start that names a column or slack the program lacks (an ``artificial:``
entry included), is singular (a basis of the wrong size included), rests a
column at an infinite bound or puts a basic structural column out of bounds;
it keeps the first usable start's result, whatever it is, so a degenerate
optimum is solved once, flagged.  One rule rests every nonbasic column: at its
upper bound where the start's ``nonbasic_at_upper`` names it or that is its
only finite bound, at 0 where it has no finite bound, else at its lower
bound.  ``_State`` rests each nonbasic column once, and each pivot or flip
rests the column it moves, so the basics' right-hand side is ``b - A_N x_N``
as it stands.  ``_start`` takes ``B^-1`` from its layout, which inverts each
start basis once (``Layout.inverse``), and computes the basic values as
``B^-1`` times the right-hand side; each basic slack that breaks its bounds
rests at the violated bound instead and a signed artificial column carries
the gap in its row, one of sign -1 negating that row of ``B^-1``.  A first
phase minimizes the artificials' sum; the second phase optimizes the true
objective from the feasible basis.  An ``opf.build_opf`` program starts at
its layout's crash basis (``Layout.crash``, which ``opf.Grid.layout`` sets)
unless an earlier optimal basis replaces it.

The entering column is the eligible one with the largest reduced cost in
absolute value (Dantzig), ties going to the lowest index.  Eligible means a
merit above ``PIVOT_TOL``: the reduced cost times a sign kept current per
pivot (-1 at a lower bound, +1 at an upper, 0 basic or fixed), or its
magnitude for a free nonbasic column.  Dantzig's rule alone can cycle on
degenerate pivots, so after ``_BLAND_AFTER`` consecutive pivots that leave
the basic values where they were, pricing turns to the lowest eligible index
(Bland 1977) until a pivot moves them again; Bland's rule cannot cycle, so
the iteration cap is only a circuit breaker.  The ratio test takes each
candidate's step as ``(x_B - bound) / delta``, signed so that it equals the
gap over ``|delta|`` bit for bit, and breaks ties by the lowest basic column
index.  A bound flip keeps the basis, so it keeps the reduced costs too: only
the flipped column's merit changes sign.

Each solve starts from its layout's ``B^-1``; phase 2 continues phase 1's
``B^-1`` (inverting afresh only where phase 1's end swapped an artificial
out), and a rank-1 product-form update per pivot (Bartels-Golub;
Forrest-Tomlin 1972) keeps it current, so a pivot costs O(m*n) array work
instead of three fresh O(m^3) solves.  Multipliers are ``c_B B^-1``, the
entering column is ``B^-1 a_q``, and the basic values, kept in basis order,
are updated in place on every pivot and bound flip.  To bound drift the
basis is inverted afresh, and basic values are recomputed in full, every
``_REFACTOR_EVERY`` pivots, counted across both phases.  The updated
quantities only steer pivot choices and the phase-1 feasibility test
(against ``FEAS_TOL``): the reported solution is computed from fresh solves
with the final basis, so a given final basis gives bitwise the same primal
values, duals, reduced costs and objective.
Two starts that end on the same basis set can list it in different row
orders; the fresh solves then factor the basis in that order, and the outputs
can differ in the last few ulps.  A phase that stops on a non-finite reduced
cost, or a non-finite reported value, raises ``SolverFailureError``; the entry
points silence numpy's overflow warnings, so that error reports it alone.

``cost_ranges`` ranges a basic column's cost at each of many solves' optima,
from their duals, with one stacked linear solve per column layout.
"""

from __future__ import annotations

import math

import numpy as np

from .lp import (
    INF,
    MAX_ITERATIONS,
    PIVOT_TOL,
    FEAS_TOL,
    LinearProgram,
    LpSolution,
    SolverFailureError,
)

_RATIO_TIE = 1e-9
_REFACTOR_EVERY = 50  # pivots between fresh inversions of the basis
_BLAND_AFTER = 10  # consecutive degenerate pivots before pricing turns to Bland
_SLACK_BOUNDS = {"<=": (0.0, INF), ">=": (-INF, 0.0), "=": (0.0, 0.0)}  # by row relation


def _solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        raise SolverFailureError("singular basis: basic columns are linearly dependent") from None


def _inverse(B: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise SolverFailureError("singular basis: basic columns are linearly dependent") from None


class Layout:
    """A column layout's read-only record, which every program over it starts
    from: its column names (``columns``), its rows as ``(name, coeffs,
    relation, rhs)`` specs (``specs``) and their names (``rows``), the
    slack-augmented ``[A | I]`` of those rows, every column and slack name
    with its index, the right-hand sides ``b``, and ``lo``, ``up`` and ``c``
    over ``[A | I]``: the column half as given, the slack half set by each
    row's relation (a slack costs nothing).  Its crash basis ``crash`` is a
    ``LinearProgram.start`` or None, and it keeps each start basis's ``B^-1``
    (``inverse``).  ``opf.Grid`` builds one per layout and study, which its
    hours' ``LinearProgram.arrays`` carry; ``program_arrays`` compiles one
    for a program given as dicts at each solve."""

    def __init__(self, columns, specs, lo, up, c, crash=None):
        self.columns, self.specs = list(columns), list(specs)
        self.rows = [spec[0] for spec in self.specs]
        n, m = len(self.columns), len(self.rows)
        self.names = self.columns + [f"slack:{r}" for r in self.rows]
        self.index = {name: j for j, name in enumerate(self.names)}
        col_index = {name: j for j, name in enumerate(self.columns)}
        A, self.b = np.zeros((m, n + m)), np.zeros(m)
        self.lo, self.up, self.c = np.zeros(n + m), np.zeros(n + m), np.zeros(n + m)
        self.lo[:n], self.up[:n], self.c[:n] = lo, up, c
        for i, (_, coeffs, relation, rhs) in enumerate(self.specs):
            for cname, coef in coeffs.items():
                A[i, col_index[cname]] += coef
            A[i, n + i], self.b[i] = 1.0, rhs
            self.lo[n + i], self.up[n + i] = _SLACK_BOUNDS[relation]
        for array in (A, self.b, self.lo, self.up, self.c):
            array.flags.writeable = False
        self.A, self.crash = A, crash
        self._inverses: dict[tuple[int, ...], np.ndarray | None] = {}  # read-only, by basis

    def inverse(self, basis: list[int]) -> np.ndarray | None:
        """A copy, for a start to write, of ``B^-1`` for the column indices
        ``basis`` in their order; None where it is singular (or not square).
        Each basis is inverted once, whatever columns rest at their upper bound."""
        key = tuple(basis)
        if key not in self._inverses:
            try:
                self._inverses[key] = _inverse(self.A[:, basis])
                self._inverses[key].flags.writeable = False
            except SolverFailureError:
                self._inverses[key] = None
        Binv = self._inverses[key]
        return None if Binv is None else Binv.copy()


def program_arrays(lp: LinearProgram):
    """``(layout, lo, up, c)``, as ``LinearProgram.arrays`` holds them:
    ``lp``'s column layout and the bounds and costs of the layout's
    ``[A | I]`` columns (minimize or maximize as ``lp`` is).  They are
    ``lp.arrays`` while the program is still given as arrays, else its dicts
    compiled into a fresh ``Layout``, which has no crash basis, and that
    layout's own arrays."""
    if lp.arrays is not None:
        return lp.arrays
    columns = lp.columns.values()
    layout = Layout(lp.columns, [(row.name, row.coeffs, row.relation, row.rhs)
                                 for row in lp.rows.values()],
                    [col.lower for col in columns], [col.upper for col in columns],
                    [col.objective for col in columns])
    return layout, layout.lo, layout.up, layout.c


def _resting_at_upper(layout: Layout, lo: np.ndarray, up: np.ndarray,
                      nonbasic_at_upper) -> np.ndarray:
    """The module's one rule for the nonbasic columns that rest at their upper
    bound: each that ``nonbasic_at_upper`` names (KeyError for a name the
    layout lacks) and each whose upper bound is its only finite one."""
    at_upper = (lo == -INF) & (up < INF)
    if nonbasic_at_upper:
        at_upper[[layout.index[name] for name in nonbasic_at_upper]] = True
    return at_upper


class _State:
    """One solve's working state: ``lp``'s ``arrays`` (``program_arrays``,
    read, never written) and its layout's right-hand sides, in minimize
    form, and a basis, named by ``start`` as ``LinearProgram.start`` does
    (KeyError for a name the layout lacks) or else the slack basis, with every other column resting by the module's
    one rule.  Each nonbasic column rests in ``x`` from here on: ``_start``,
    ``_iterate`` and ``_expel_artificials`` rest each column they move off the
    basis or flip."""

    def __init__(self, lp: LinearProgram, arrays,
                 start: tuple[tuple[str, ...], tuple[str, ...]] | None = None):
        self.layout, self.lo, self.up, self.c_ext = arrays
        self.b = self.layout.b
        self.maximizing = lp.sense == "maximize"
        self.n_struct = n = len(self.layout.columns)
        self.n_rows = m = len(self.layout.rows)
        self.A = self.layout.A
        # always minimized; _start extends it by a zero per artificial
        self.c_int = -self.c_ext if self.maximizing else self.c_ext
        self.constant = lp.constant

        self.n_total = n + m
        basis, nonbasic_at_upper = start or (self.layout.names[n:], ())
        self.basis = [self.layout.index[name] for name in basis]
        self.at_upper = _resting_at_upper(self.layout, self.lo, self.up, nonbasic_at_upper)
        self.in_basis = np.zeros(n + m, dtype=bool)
        self.in_basis[self.basis] = True
        self.x = np.where(self.at_upper, self.up, np.where(self.lo > -INF, self.lo, 0.0))
        self.artificial_from = n + m  # columns >= this index are artificial
        self.art_rows = np.zeros(0, dtype=np.intp)  # the row each artificial serves
        self.iterations = 0
        self.Binv: np.ndarray | None = None  # B^-1 in basis order; _start sets it
        self.pivots = 0  # pivots since B^-1 was last inverted afresh

    def nonbasic_value(self, j: int) -> float:
        if self.at_upper[j]:
            return self.up[j]
        if self.lo[j] > -INF:
            return self.lo[j]
        return 0.0

    def resting_rhs(self) -> np.ndarray:
        """The rhs the basic columns must meet, with the others at rest."""
        nonbasic = ~self.in_basis
        return self.b - self.A[:, nonbasic] @ self.x[nonbasic]

    def reinvert(self) -> None:
        """Invert the basis afresh and recompute the basic values in full."""
        B = self.A[:, self.basis]
        self.Binv = _inverse(B)
        self.x[self.basis] = _solve(B, self.resting_rhs())
        self.pivots = 0


def _start(st: _State) -> _State | None:
    """Basic values of a resting state, and one signed phase-1 artificial per
    row whose basic slack breaks its bounds (the slack rests at the violated
    bound).  ``B^-1`` is the layout's copy (``Layout.inverse``); an artificial
    of sign -1 in a slack's place negates that row of it.  None where the
    basis is singular or a value is infinite or a basic structural column is
    out of bounds."""
    n, m = st.n_struct, st.n_rows
    st.Binv = st.layout.inverse(st.basis)
    if st.Binv is None:
        return None
    st.x[st.basis] = st.Binv @ st.resting_rhs()
    if not np.isfinite(st.x).all():
        return None
    out = (st.x < st.lo - FEAS_TOL) | (st.x > st.up + FEAS_TOL)
    if out[:n].any():
        return None
    art_rows = out[n:].nonzero()[0]
    if art_rows.size:
        k = art_rows.size
        block = np.zeros((m, k))
        for t, i in enumerate(art_rows.tolist()):
            s = n + i
            st.at_upper[s] = st.x[s] > st.up[s]
            block[i, t] = 1.0 if st.x[s] > st.nonbasic_value(s) else -1.0
            st.x[s] = st.nonbasic_value(s)
            pos = st.basis.index(s)
            st.Binv[pos] *= block[i, t]  # exact: B' = B with column pos scaled by it
            st.basis[pos] = st.n_total + t
        st.A = np.hstack([st.A, block])
        st.lo = np.concatenate([st.lo, np.zeros(k)])
        st.up = np.concatenate([st.up, np.full(k, INF)])
        st.c_int = np.concatenate([st.c_int, np.zeros(k)])  # phase 2 prices artificials at 0
        st.x = np.concatenate([st.x, np.zeros(k)])
        st.at_upper = np.concatenate([st.at_upper, np.zeros(k, dtype=bool)])
        st.artificial_from = st.n_total
        st.art_rows = art_rows
        st.n_total += k
        st.in_basis = np.zeros(st.n_total, dtype=bool)
        st.in_basis[st.basis] = True
        st.x[st.basis] = st.Binv @ st.resting_rhs()
    return st


def _iterate(st: _State, cost: np.ndarray) -> str:
    """Run simplex iterations on the current phase cost; returns optimal|unbounded.

    Basic values and ``st.Binv`` must be current on entry, so phase 2 carries
    on with phase 1's ``B^-1``.  ``B^-1`` is inverted afresh (and basic values
    recomputed in full) once ``st.pivots`` reaches ``_REFACTOR_EVERY``; in
    between, each pivot applies a rank-1 update and basic values move by the
    step taken.  The basic columns' costs, bounds, finite-bound masks and
    values ``x_B`` follow each pivot in basis order; ``x_B`` is written back
    to ``st.x`` before each return, raise and inversion.  ``sign`` prices
    each column and follows each pivot and bound flip: -1 for a nonbasic
    column at its lower bound, +1 at its upper, 0 for basic and fixed ones.
    A column improves where ``d * sign`` exceeds ``PIVOT_TOL``; the free
    nonbasic columns, ``free``, price by ``|d|`` and leave that list when
    they enter.  A bound flip leaves the basis, ``c_B`` and ``B^-1`` as they
    were, so ``d`` and the merits stand, the flipped column's merit negated
    with its sign.
    """
    A, lo, up = st.A, st.lo, st.up
    basis = np.array(st.basis, dtype=np.intp)
    c_B, lo_B, up_B, x_B = cost[basis], lo[basis], up[basis], st.x[basis]
    has_lo, has_up, movable = lo > -INF, up < INF, lo != up
    has_lo_B, has_up_B = has_lo[basis], has_up[basis]
    nonbasic = ~st.in_basis
    sign = np.where(st.at_upper, 1.0, -1.0) * (movable & nonbasic)
    free = (~has_lo & ~has_up & nonbasic).nonzero()[0]
    stalled = 0  # consecutive pivots that left the basic values where they were
    d = None  # the reduced costs, None once a pivot changes the basis
    while True:
        if st.iterations >= MAX_ITERATIONS:
            st.x[basis] = x_B
            raise SolverFailureError(f"iteration cap {MAX_ITERATIONS} exceeded")
        st.iterations += 1

        if d is None:
            if st.pivots == _REFACTOR_EVERY:
                st.x[basis] = x_B
                st.reinvert()
                x_B = st.x[basis]
            Binv = st.Binv
            d = cost - (c_B @ Binv) @ A
            # merit > PIVOT_TOL: a nonbasic column whose move from its bound improves
            merit = d * sign
            if free.size:
                merit[free] = np.abs(d[free])

        entering = int(merit.argmax())  # Dantzig: largest |d|, ties to the lowest index
        if stalled >= _BLAND_AFTER or not merit[entering] > PIVOT_TOL:
            eligible = merit > PIVOT_TOL  # NaN never enters
            if not eligible.any():
                st.x[basis] = x_B
                if not np.isfinite(d).all():  # a NaN merit is never eligible
                    raise SolverFailureError("non-finite value in the optimal solution")
                return "optimal"
            entering = int(eligible.argmax() if stalled >= _BLAND_AFTER  # Bland: lowest index
                           else np.where(eligible, merit, -1.0).argmax())
        direction = 1.0 if d[entering] < -PIVOT_TOL else -1.0

        w = Binv @ A[:, entering]
        delta = w if direction > 0 else -w  # direction * w, bit for bit

        t_flip = INF
        if has_lo[entering] and has_up[entering]:
            t_flip = up[entering] - lo[entering]

        # a basic column falls to its lower bound or rises to its upper; the
        # signed step (x_B - bound) / delta is |gap| / |delta| bit for bit
        falling = (delta > PIVOT_TOL) & has_lo_B
        candidates = (falling | (delta < -PIVOT_TOL) & has_up_B).nonzero()[0]
        steps = np.maximum(0.0, (x_B - np.where(falling, lo_B, up_B))[candidates]
                           / delta[candidates])

        # sequential ratio test: ties within _RATIO_TIE go to the lowest basic index
        t_best = INF
        leave_pos = -1
        for pos, t in zip(candidates.tolist(), steps.tolist()):
            if t < t_best - _RATIO_TIE:
                t_best, leave_pos = t, pos
            elif t <= t_best + _RATIO_TIE and (leave_pos < 0 or st.basis[pos] < st.basis[leave_pos]):
                t_best, leave_pos = min(t, t_best), pos

        if t_flip == INF and t_best == INF:
            st.x[basis] = x_B
            return "unbounded"

        if t_flip <= t_best:  # the basis stays, and so do its prices
            x_B -= t_flip * delta
            st.at_upper[entering] = not st.at_upper[entering]
            st.x[entering] = st.nonbasic_value(entering)
            sign[entering] = -sign[entering]
            merit[entering] = -merit[entering]
            stalled = 0
            continue

        stalled = stalled + 1 if t_best == 0.0 else 0
        x_B -= t_best * delta
        x_B[leave_pos] = st.nonbasic_value(entering) + direction * t_best
        bi = st.basis[leave_pos]
        st.at_upper[bi] = delta[leave_pos] < 0  # increased to its upper bound
        st.in_basis[bi] = False
        st.x[bi] = st.nonbasic_value(bi)
        st.basis[leave_pos] = entering
        basis[leave_pos] = entering
        st.in_basis[entering] = True
        c_B[leave_pos], lo_B[leave_pos], up_B[leave_pos] = cost[entering], lo[entering], up[entering]
        has_lo_B[leave_pos], has_up_B[leave_pos] = has_lo[entering], has_up[entering]
        sign[bi] = (1.0 if st.at_upper[bi] else -1.0) if movable[bi] else 0.0
        sign[entering] = 0.0
        if free.size:
            free = free[free != entering]

        pivot_row = Binv[leave_pos] / w[leave_pos]
        Binv -= np.einsum("i,j->ij", w, pivot_row)
        Binv[leave_pos] = pivot_row
        st.pivots += 1
        d = None


def _expel_artificials(st: _State) -> bool:
    """After phase 1, swap basic artificials for structural/slack columns where
    possible; True if any was swapped."""
    m = len(st.basis)
    swapped = False
    for pos in range(m):
        bi = st.basis[pos]
        if bi < st.artificial_from:
            continue
        B = st.A[:, st.basis]
        e = np.zeros(m)
        e[pos] = 1.0
        u = _solve(B.T, e)
        replacement = -1
        for j in range(st.artificial_from):
            if st.in_basis[j]:
                continue
            if abs(u @ st.A[:, j]) > PIVOT_TOL:
                replacement = j
                break
        if replacement >= 0:
            st.in_basis[bi] = False
            st.at_upper[bi] = False
            st.x[bi] = 0.0  # an artificial's bounds are [0, 0] after phase 1
            st.basis[pos] = replacement
            st.in_basis[replacement] = True
            swapped = True
    return swapped


def _extract(st: _State, status: str) -> LpSolution:
    n, m = st.n_struct, st.n_rows
    layout = st.layout
    names = layout.names

    if status != "optimal":
        return LpSolution(status=status, primal={}, duals={}, reduced_costs={},
                          objective_value=math.nan, basis=(),
                          nonbasic_at_upper=(), degenerate=False,
                          iterations=st.iterations)

    B = st.A[:, st.basis]
    st.x[st.basis] = _solve(B, st.resting_rhs())
    y_int = _solve(B.T, st.c_int[st.basis])
    y_ext = -y_int if st.maximizing else y_int

    x_struct = st.x[:n]
    objective = float(st.c_ext[:n] @ x_struct) + st.constant
    reduced_ext = st.c_ext[:n] - y_ext @ st.A[:, :n]
    if not (np.isfinite(np.concatenate((x_struct, y_ext, reduced_ext))).all()
            and math.isfinite(objective)):
        raise SolverFailureError("non-finite value in the optimal solution")

    # a basic column other than an artificial sits at a bound
    af = st.artificial_from
    x = st.x[:af]
    gap = np.minimum(np.abs(x - st.lo[:af]), np.abs(x - st.up[:af]))  # inf at an infinite bound
    degenerate = bool((gap[st.in_basis[:af]] <= 1e-9).any())

    basis_names = tuple(
        names[bi] if bi < n + m
        else f"artificial:{layout.rows[st.art_rows[bi - st.artificial_from]]}"
        for bi in st.basis
    )
    lo, up = st.lo[: n + m], st.up[: n + m]  # fixed columns rest at either bound
    resting_up = ~st.in_basis[: n + m] & st.at_upper[: n + m] & (lo < up)
    at_upper = tuple(names[j] for j in resting_up.nonzero()[0].tolist())

    return LpSolution(
        status="optimal",
        primal=dict(zip(layout.columns, (x_struct + 0.0).tolist())),
        duals=dict(zip(layout.rows, (y_ext + 0.0).tolist())),
        reduced_costs=dict(zip(layout.columns, (reduced_ext + 0.0).tolist())),
        objective_value=objective,
        basis=basis_names,
        nonbasic_at_upper=at_upper,
        degenerate=degenerate,
        iterations=st.iterations,
    )


def _solve_from(st: _State) -> LpSolution:
    """Phase 1 if the start needed artificials, then phase 2."""
    if st.n_total > st.artificial_from:
        phase1 = np.zeros(st.n_total)
        phase1[st.artificial_from:] = 1.0
        outcome = _iterate(st, phase1)
        if outcome == "unbounded":  # cannot happen: objective bounded below by 0
            raise SolverFailureError("phase 1 reported unbounded")
        infeasibility = float(st.x[st.artificial_from:].sum())
        if infeasibility > FEAS_TOL:
            return _extract(st, "infeasible")
        st.lo[st.artificial_from:] = 0.0
        st.up[st.artificial_from:] = 0.0
        if _expel_artificials(st):
            st.reinvert()

    return _extract(st, _iterate(st, st.c_int))


@np.errstate(over="ignore", invalid="ignore")
def solve_program(lp: LinearProgram) -> LpSolution:
    arrays = program_arrays(lp)
    for start in (lp.start, None):  # its own start, then the slack basis (None)
        try:
            st = _start(_State(lp, arrays, start))
        except KeyError:  # unknown column or slack, artificials included
            continue
        if st is not None:
            return _solve_from(st)
    # the slack basis is the identity: only a non-finite value leaves it unusable
    raise SolverFailureError("non-finite value at the slack-basis start")


@np.errstate(over="ignore", invalid="ignore")
def solution_from_basis(lp: LinearProgram, basis: tuple[str, ...],
                        nonbasic_at_upper: tuple[str, ...]) -> LpSolution:
    """Rebuild the solution a given basis identifies; audits solver output."""
    return _extract(_State(lp, program_arrays(lp), (basis, nonbasic_at_upper)), "optimal")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def cost_ranges(pairs, column: str) -> list[tuple[float, float]]:
    """For each ``(lp, sol)`` of ``pairs``, the open interval of the basic
    ``column``'s objective coefficient over which the basis of ``lp``'s optimum
    ``sol`` stays optimal with every nonbasic column that can move priced
    strictly out (cost ranging): with ``column`` basic in row r, changing its
    minimize-form cost by delta moves each reduced cost (from ``sol``'s duals)
    by -delta*(B^-1 A)_{r,j}.  Empty, ``(c, c)`` at the coefficient ``c``, where
    ``sol`` is degenerate (its vertex may have other bases) or a column that can
    move prices out at zero (a tie); ValueError where ``column`` is not basic.

    The pairs of one layout share its ``[A | I]``, so each group solves its
    stacked ``B^T u = e_r`` in one call and forms every ``u [A | I]`` and
    ``y [A | I]`` as a stack of row-vector products, each the bits of that
    pair's own product; an interval's ends are a min and a max along its row."""
    ranges: list = [None] * len(pairs)
    groups: dict[Layout, list] = {}
    for i, (lp, sol) in enumerate(pairs):
        layout, lo, up, c = program_arrays(lp)
        cost = float(c[layout.index[column]])
        if sol.degenerate:
            ranges[i] = (cost, cost)
            continue
        sign = -1.0 if lp.sense == "maximize" else 1.0  # to the minimize form
        groups.setdefault(layout, []).append((
            i, cost, sign, [layout.index[name] for name in sol.basis], sign * c,
            [sign * sol.duals[row] for row in layout.rows], lo < up,
            _resting_at_upper(layout, lo, up, sol.nonbasic_at_upper)))
    for layout, members in groups.items():
        index, cost, sign, basis, c_int, y, bounded, at_upper = zip(*members)
        q, A = layout.index[column], layout.A
        if any(q not in b for b in basis):
            raise ValueError(f"column {column!r} is not basic")
        k = len(members)
        e = np.zeros((k, len(layout.rows), 1))
        e[np.arange(k), [b.index(q) for b in basis], 0] = 1.0
        basis = np.array(basis, dtype=np.intp)
        u = _solve(A.T[basis], e)[:, :, 0]
        alpha = np.matmul(u[:, None, :], A)[:, 0]
        d = np.array(c_int) - np.matmul(np.array(y)[:, None, :], A)[:, 0]
        # a column at its lower bound prices out with d > 0, one at its upper with d < 0
        nonbasic = np.ones(alpha.shape, dtype=bool)
        nonbasic[np.arange(k)[:, None], basis] = False
        movable = nonbasic & np.array(bounded)
        side = np.where(np.array(at_upper), -1.0, 1.0)
        d, alpha = side * d, side * alpha
        tied = (movable & (d <= PIVOT_TOL)).any(axis=1)
        # side * (d - delta * alpha) > 0, for delta on the internal minimize cost
        ratio = d / alpha
        above = np.where(movable & (alpha > 0), ratio, INF).min(axis=1).tolist()
        below = np.where(movable & (alpha < 0), ratio, -INF).max(axis=1).tolist()
        for i, c, s, tie, up_by, down_by in zip(index, cost, sign, tied.tolist(), above, below):
            ranges[i] = (c, c) if tie else \
                (c - up_by, c - down_by) if s < 0 else (c + down_by, c + up_by)
    return ranges
