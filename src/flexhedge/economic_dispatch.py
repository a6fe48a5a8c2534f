"""Single-bus economic dispatch, its capped dual, and the flexibility primal.

Three linear programs over one generator and one load:

* the welfare-maximizing dispatch (``build_ed_primal``),
* its mechanically derived dual with an optional cap on the load's price
  (``build_ed_dual``), and
* an equivalent primal in which a nonnegative flexibility injection priced at
  the cap keeps the balance feasible (``build_ed_flex_primal``).

``solve_ed_chain`` solves all three and reports the pairwise objective gaps:
the capped dual and the flexibility primal agree to solver precision always,
and both collapse onto the unconstrained dispatch exactly when the cap is not
binding.

Price normalization: balance rows are always written generation-minus-load,
and the price paid by load is the *negated* raw dual of that row.  This is the
single place in the package where the sign is fixed; everything downstream
(OPF, hedging) reuses ``price_paid_by_load``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lp import INF, LinearProgram, LpSolution, dual_of, dual_program, solve
from .model import GenOffer, LoadUtility

BALANCE_ROW = "balance"
CAPACITY_ROW = "gen_capacity"
CAP_ROW = "price_cap"
PRICE_TIE_TOL = 1e-9


def price_paid_by_load(sol: LpSolution, balance_row: str = BALANCE_ROW) -> float:
    """LMP at a balance row: positive means the load pays.

    Balance rows are oriented generation - load = 0 inside a maximize
    program, so the raw dual is the welfare change per MW of forced extra
    generation; the price charged to load is its negation.
    """
    return -dual_of(sol, balance_row)


@dataclass(frozen=True)
class EdInstance:
    offer: GenOffer
    utility: LoadUtility
    cap: float | None = None

    def validate(self) -> list[str]:
        problems = []
        if not math.isfinite(self.offer.marginal_cost):
            problems.append(f"marginal cost must be finite, got {self.offer.marginal_cost}")
        elif self.offer.marginal_cost < 0:
            problems.append(f"marginal cost must be >= 0, got {self.offer.marginal_cost}")
        if not self.offer.capacity_mw >= 0:
            problems.append(f"capacity must be >= 0, got {self.offer.capacity_mw}")
        if not 0 <= self.utility.p_min_mw <= self.utility.p_max_mw:
            problems.append(
                f"load bounds must satisfy 0 <= min <= max, got "
                f"[{self.utility.p_min_mw}, {self.utility.p_max_mw}]")
        if not math.isfinite(self.utility.p_max_mw):
            problems.append("load upper bound must be finite")
        if not math.isfinite(self.utility.marginal_utility):
            problems.append(
                f"marginal utility must be finite, got {self.utility.marginal_utility}")
        if self.cap is not None and not math.isfinite(self.cap):
            problems.append(f"price cap must be finite, got {self.cap}")
        elif self.cap is not None and self.cap < 0:
            problems.append(f"price cap must be >= 0, got {self.cap}")
        return problems


@dataclass(frozen=True)
class EdResult:
    p_g_mw: float
    p_l_mw: float
    p_flexreq_mw: float
    lmp_eur_mwh: float
    mu_lower: float
    mu_upper: float
    objective_eur: float


@dataclass(frozen=True)
class EdChainReport:
    """The three objective values and their pairwise gaps."""
    result: EdResult
    objective_unconstrained: float
    objective_capped_dual: float
    objective_with_flex: float
    lmp_unconstrained: float
    degenerate: bool

    @property
    def gap_dual_vs_flex(self) -> float:
        return abs(self.objective_capped_dual - self.objective_with_flex)

    @property
    def gap_unconstrained_vs_flex(self) -> float:
        return abs(self.objective_unconstrained - self.objective_with_flex)

    @property
    def max_pairwise_gap(self) -> float:
        values = (self.objective_unconstrained, self.objective_capped_dual,
                  self.objective_with_flex)
        return max(abs(a - b) for a in values for b in values)


def _check(inst: EdInstance, need_cap: bool = False) -> None:
    problems = inst.validate()
    if need_cap and inst.cap is None:
        problems.append("price cap required but absent")
    if problems:
        raise ValueError("; ".join(problems))


def build_ed_primal(inst: EdInstance) -> LinearProgram:
    """Welfare maximization: utility of consumption minus generation cost.

    Load limits are column bounds; a finite generator capacity becomes an
    explicit row so its shadow price is directly readable.
    """
    _check(inst)
    prog = LinearProgram("maximize", name="ed")
    prog.add_column("p_g", 0.0, INF, objective=-inst.offer.marginal_cost)
    prog.add_column("p_l", inst.utility.p_min_mw, inst.utility.p_max_mw,
                    objective=inst.utility.marginal_utility)
    prog.add_row(BALANCE_ROW, {"p_g": 1.0, "p_l": -1.0}, "=", 0.0)
    if inst.offer.capacity_mw < INF:
        prog.add_row(CAPACITY_ROW, {"p_g": 1.0}, "<=", inst.offer.capacity_mw)
    prog.constant = inst.utility.constant_utility - inst.offer.constant_cost
    return prog


def build_ed_dual(inst: EdInstance) -> LinearProgram:
    """Mechanical dual of the dispatch; with a cap, bounds the load price.

    The load price is the negated balance dual, so the cap row reads
    ``-y_balance <= cap``.
    """
    _check(inst)
    dual = dual_program(build_ed_primal(inst))
    if inst.cap is not None:
        dual.add_row(CAP_ROW, {f"y:{BALANCE_ROW}": -1.0}, "<=", inst.cap)
    return dual


def build_ed_flex_primal(inst: EdInstance) -> LinearProgram:
    """Dispatch with a flexibility injection priced at the cap."""
    _check(inst, need_cap=True)
    prog = build_ed_primal(inst)
    prog.name = "ed_flex"
    prog.add_column("p_flexreq", 0.0, INF, objective=-inst.cap)
    prog.rows[BALANCE_ROW].coeffs["p_flexreq"] = 1.0
    return prog


def _result_from(sol: LpSolution, with_flex: bool) -> EdResult:
    lmp = price_paid_by_load(sol)
    d_load = sol.reduced_costs["p_l"]
    return EdResult(
        p_g_mw=sol.primal["p_g"],
        p_l_mw=sol.primal["p_l"],
        p_flexreq_mw=sol.primal["p_flexreq"] if with_flex else 0.0,
        lmp_eur_mwh=lmp,
        mu_lower=max(0.0, -d_load),
        mu_upper=max(0.0, d_load),
        objective_eur=sol.objective_value,
    )


def solve_ed_chain(inst: EdInstance) -> EdChainReport:
    """Solve the unconstrained dispatch, the capped dual, and the flex primal."""
    _check(inst)
    primal_sol = solve(build_ed_primal(inst))
    if primal_sol.status != "optimal":
        raise ValueError(f"unconstrained dispatch is {primal_sol.status}")
    lmp_unconstrained = price_paid_by_load(primal_sol)

    if inst.cap is None:
        result = _result_from(primal_sol, with_flex=False)
        obj = primal_sol.objective_value
        return EdChainReport(result, obj, obj, obj, lmp_unconstrained,
                             degenerate=primal_sol.degenerate)

    dual_sol = solve(build_ed_dual(inst))
    flex_sol = solve(build_ed_flex_primal(inst))
    if dual_sol.status != "optimal" or flex_sol.status != "optimal":
        raise ValueError(
            f"capped chain failed: dual {dual_sol.status}, flex {flex_sol.status}")

    tie = abs(lmp_unconstrained - inst.cap) <= PRICE_TIE_TOL
    return EdChainReport(
        result=_result_from(flex_sol, with_flex=True),
        objective_unconstrained=primal_sol.objective_value,
        objective_capped_dual=dual_sol.objective_value,
        objective_with_flex=flex_sol.objective_value,
        lmp_unconstrained=lmp_unconstrained,
        degenerate=flex_sol.degenerate or tie,
    )
