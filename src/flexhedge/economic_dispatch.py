"""Single-bus economic dispatch, its capped dual, and the flexibility primal.

An ``EdInstance`` is one hour of a one-bus network, a generator and a load at
bus 1, so its three linear programs are the OPF's: the welfare-maximizing
dispatch (``build_ed_primal``) is ``build_opf`` of the hour, its dual with an
optional cap on the load's price (``build_ed_dual``) is ``capped_dual``, and
the dispatch with a flexibility injection priced at the cap
(``build_ed_flex_primal``) is ``build_opf`` of the hour with the cap.

``solve_ed_chain`` solves all three and reports the pairwise objective gaps:
the capped dual and the flexibility primal agree to solver precision always,
and both collapse onto the unconstrained dispatch exactly when the cap is not
binding.  Load prices follow ``opf.price_paid_by_load``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .lp import LinearProgram, LpSolution, solve
from .model import Bus, GenOffer, HourlyMarketData, LoadUtility, Network, PriceCap
from .opf import Grid, ValidHour, build_opf, capped_dual, price_paid_by_load

SINGLE_BUS = Network([Bus(1, is_slack=True, price_constrained=True)])
PRICE_TIE_TOL = 1e-9


@dataclass(frozen=True)
class EdInstance:
    """One generator and one load, both at bus 1, and an optional price cap
    there; an offer or utility elsewhere is at an unknown bus."""
    offer: GenOffer
    utility: LoadUtility
    cap: float | None = None


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


def _hour(inst: EdInstance, capped: bool = True) -> ValidHour:
    caps = (PriceCap(1, inst.cap),) if capped and inst.cap is not None else ()
    return Grid(SINGLE_BUS).hours((HourlyMarketData(1, [inst.offer], [inst.utility]),), caps)[0]


def _crash_started(hour: ValidHour) -> LinearProgram:
    # from the slack basis a one-bus solve can end with the angle_ref slack
    # basic at zero and report a degenerate optimum that is not one
    prog = build_opf(hour)
    prog.start = prog.layout.crash
    return prog


def build_ed_primal(inst: EdInstance) -> LinearProgram:
    """Welfare maximization: utility of consumption minus generation cost.
    Load limits and a finite generator capacity are column bounds."""
    return _crash_started(_hour(inst, capped=False))


def build_ed_dual(inst: EdInstance) -> LinearProgram:
    """Mechanical dual of the dispatch; with a cap, bounds the load price."""
    return capped_dual(_hour(inst))


def build_ed_flex_primal(inst: EdInstance) -> LinearProgram:
    """Dispatch with a flexibility injection ``pflex_1`` priced at the cap."""
    if inst.cap is None:
        raise ValueError("the flexibility primal needs a price cap")
    return _crash_started(_hour(inst))


def _result_from(sol: LpSolution) -> EdResult:
    d_load = sol.reduced_costs["pl_1"]
    return EdResult(
        p_g_mw=sol.primal["pg_1"],
        p_l_mw=sol.primal["pl_1"],
        p_flexreq_mw=sol.primal.get("pflex_1", 0.0),
        lmp_eur_mwh=price_paid_by_load(sol, "balance_1"),
        mu_lower=max(0.0, -d_load),
        mu_upper=max(0.0, d_load),
        objective_eur=sol.objective_value,
    )


def solve_ed_chain(inst: EdInstance) -> EdChainReport:
    """Solve the unconstrained dispatch, the capped dual, and the flex primal."""
    hour = _hour(inst)  # the three programs share its checks
    primal_sol = solve(_crash_started(replace(hour, caps=())))
    if primal_sol.status != "optimal":
        raise ValueError(f"unconstrained dispatch is {primal_sol.status}")
    lmp_unconstrained = price_paid_by_load(primal_sol, "balance_1")

    if inst.cap is None:
        obj = primal_sol.objective_value
        return EdChainReport(_result_from(primal_sol), obj, obj, obj, lmp_unconstrained,
                             degenerate=primal_sol.degenerate)

    dual_sol = solve(capped_dual(hour))
    flex_sol = solve(_crash_started(hour))
    if dual_sol.status != "optimal" or flex_sol.status != "optimal":
        raise ValueError(
            f"capped chain failed: dual {dual_sol.status}, flex {flex_sol.status}")

    tie = abs(lmp_unconstrained - inst.cap) <= PRICE_TIE_TOL
    return EdChainReport(
        result=_result_from(flex_sol),
        objective_unconstrained=primal_sol.objective_value,
        objective_capped_dual=dual_sol.objective_value,
        objective_with_flex=flex_sol.objective_value,
        lmp_unconstrained=lmp_unconstrained,
        degenerate=flex_sol.degenerate or tie,
    )
