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
binding.  The dispatch and the flexibility primal are solved as any OPF hour
(``opf.solve_opf_hour``); the load's bound prices come from its utility less the LMP.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .lp import LinearProgram, solve
from .model import Bus, GenOffer, HourlyMarketData, LoadUtility, Network, PriceCap
from .opf import DispatchResult, Grid, ValidHour, build_opf, capped_dual, solve_opf_hour

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


def _hour(inst: EdInstance) -> ValidHour:
    caps = (PriceCap(1, inst.cap),) if inst.cap is not None else ()
    return Grid(SINGLE_BUS).hours((HourlyMarketData(1, [inst.offer], [inst.utility]),), caps)[0]


def build_ed_primal(inst: EdInstance) -> LinearProgram:
    """Welfare maximization: utility of consumption minus generation cost.
    Load limits and a finite generator capacity are column bounds."""
    return build_opf(replace(_hour(inst), caps=()))


def build_ed_dual(inst: EdInstance) -> LinearProgram:
    """Mechanical dual of the dispatch; with a cap, bounds the load price."""
    return capped_dual(_hour(inst))


def build_ed_flex_primal(inst: EdInstance) -> LinearProgram:
    """Dispatch with a flexibility injection at bus 1 priced at the cap."""
    if inst.cap is None:
        raise ValueError("the flexibility primal needs a price cap")
    return build_opf(_hour(inst))


def _result_from(res: DispatchResult, inst: EdInstance) -> EdResult:
    lmp = res.lmp_eur_mwh[1]
    d_load = inst.utility.marginal_utility - lmp  # the load's reduced cost
    return EdResult(p_g_mw=res.p_g_mw[1], p_l_mw=res.p_l_mw[1],
                    p_flexreq_mw=res.p_flexreq_mw.get(1, 0.0), lmp_eur_mwh=lmp,
                    mu_lower=max(0.0, -d_load), mu_upper=max(0.0, d_load),
                    objective_eur=res.objective_eur)


def solve_ed_chain(inst: EdInstance) -> EdChainReport:
    """Solve the unconstrained dispatch, the capped dual, and the flex primal."""
    hour = _hour(inst)  # the three programs share its checks
    primal = solve_opf_hour(replace(hour, caps=()))
    if primal is None:
        raise ValueError("unconstrained dispatch is infeasible")
    lmp_unconstrained = primal.lmp_eur_mwh[1]

    if inst.cap is None:
        obj = primal.objective_eur
        return EdChainReport(_result_from(primal, inst), obj, obj, obj, lmp_unconstrained,
                             degenerate=primal.degenerate)

    dual_sol = solve(capped_dual(hour))
    if dual_sol.status != "optimal":
        raise ValueError(f"capped dual is {dual_sol.status}")
    flex = solve_opf_hour(hour)  # feasible: the flexibility can serve the whole load

    tie = abs(lmp_unconstrained - inst.cap) <= PRICE_TIE_TOL
    return EdChainReport(
        result=_result_from(flex, inst),
        objective_unconstrained=primal.objective_eur,
        objective_capped_dual=dual_sol.objective_value,
        objective_with_flex=flex.objective_eur,
        lmp_unconstrained=lmp_unconstrained,
        degenerate=flex.degenerate or tie,
    )
