"""Exact scaling relations of the two-pass hedge, with no oracle and no tolerance.

Multiplying every price (marginal costs, utilities, constant terms and the
cap) by a power of two multiplies every reduced cost and dual by it exactly,
so each pivot choice and each bound test sees the same signs and ratios: the
dispatch, flows, flexibility and basis stay as they were, and every LMP is
multiplied.  Multiplying every MW quantity (capacities, load bounds, line
limits, and the constant terms so the objective scales with them) multiplies
every primal value instead and leaves the prices.
"""

from dataclasses import replace

import pytest

from flexhedge.hedging import run_hedge
from flexhedge.model import PriceCap
from flexhedge.scenario import generate_scenario, preset_spec

from test_mesh_oracle import seeded_mesh

STUDIES = [f"paper-3bus-{case}-{seed}" for seed in (1, 7, 42) for case in ("infinite", "finite")]
STUDIES += [f"mesh-{n}" for n in (10, 30, 60)]


def study(name: str):
    """The network, hours and cap of a named study."""
    if name.startswith("mesh-"):
        return seeded_mesh(int(name.split("-")[1]), 1)
    _, _, case, seed = name.split("-")
    scenario = generate_scenario(preset_spec("paper-3bus", case=case, seed=int(seed)))
    return scenario.network, scenario.hours, PriceCap(3, 70.0)


def scale_prices(net, hours, cap, f):
    hours = [replace(data,
                     offers=[replace(o, marginal_cost=o.marginal_cost * f,
                                     constant_cost=o.constant_cost * f) for o in data.offers],
                     utilities=[replace(u, marginal_utility=u.marginal_utility * f,
                                        constant_utility=u.constant_utility * f)
                                for u in data.utilities])
             for data in hours]
    return net, hours, replace(cap, cap_eur_per_mwh=cap.cap_eur_per_mwh * f)


def scale_quantities(net, hours, cap, f):
    net = replace(net, lines=[replace(line, flow_limit_mw=line.flow_limit_mw * f)
                              for line in net.lines])
    hours = [replace(data,
                     offers=[replace(o, capacity_mw=o.capacity_mw * f,
                                     constant_cost=o.constant_cost * f) for o in data.offers],
                     utilities=[replace(u, p_min_mw=u.p_min_mw * f, p_max_mw=u.p_max_mw * f,
                                        constant_utility=u.constant_utility * f)
                                for u in data.utilities])
             for data in hours]
    return net, hours, cap


def times(values: dict, f: float) -> dict:
    return {key: value * f for key, value in values.items()}


def prices_times(res, f):
    return replace(res, lmp_eur_mwh=times(res.lmp_eur_mwh, f),
                   congestion_dual_eur_mwh=times(res.congestion_dual_eur_mwh, f),
                   objective_eur=res.objective_eur * f)


def quantities_times(res, f):
    return replace(res, p_g_mw=times(res.p_g_mw, f), p_l_mw=times(res.p_l_mw, f),
                   theta_rad=times(res.theta_rad, f), flow_mw=times(res.flow_mw, f),
                   p_flexreq_mw=times(res.p_flexreq_mw, f), objective_eur=res.objective_eur * f)


@pytest.mark.parametrize("name", STUDIES)
def test_scaling_by_a_power_of_two_scales_both_passes_exactly(name):
    net, hours, cap = study(name)
    run = run_hedge(net, hours, cap)
    base = run.unconstrained + run.hedged
    assert sum(res is not None for res in base) >= 24, name
    for scale, expect in ((scale_prices, prices_times), (scale_quantities, quantities_times)):
        for k in (1, -1, 10):
            f = 2.0 ** k
            run = run_hedge(*scale(net, hours, cap, f))
            for res, res_scaled in zip(base, run.unconstrained + run.hedged, strict=True):
                assert res_scaled == (None if res is None else expect(res, f)), (name, scale.__name__, k)
