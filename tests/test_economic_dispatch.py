"""Single-bus dispatch chain: primal, capped dual, flexibility primal."""

import math
import random
import re

import pytest

from flexhedge.economic_dispatch import (
    EdInstance,
    build_ed_dual,
    build_ed_flex_primal,
    build_ed_primal,
    solve_ed_chain,
)
from flexhedge.lp import solve, verify_kkt
from flexhedge.model import GenOffer, LoadUtility
from flexhedge.opf import price_paid_by_load

from oracles import brute_force_optimum


def make_instance(a=80.0, b=75.0, p_min=0.0, p_max=1.0, capacity=math.inf,
                  cap=None, c_gen=0.0, c_load=0.0):
    return EdInstance(
        offer=GenOffer(bus=1, marginal_cost=a, constant_cost=c_gen, capacity_mw=capacity),
        utility=LoadUtility(bus=1, marginal_utility=b, constant_utility=c_load,
                            p_min_mw=p_min, p_max_mw=p_max),
        cap=cap,
    )


def random_instance(rng: random.Random, with_cap: bool) -> EdInstance:
    p_min = rng.uniform(0.0, 1.0)
    p_max = p_min + rng.uniform(0.0, 2.0)
    capacity = math.inf if rng.random() < 0.3 else p_min + rng.uniform(0.0, 3.0)
    return make_instance(
        a=rng.uniform(5.0, 120.0),
        b=rng.uniform(5.0, 120.0),
        p_min=p_min,
        p_max=p_max,
        capacity=capacity,
        cap=rng.uniform(0.0, 130.0) if with_cap else None,
        c_gen=rng.uniform(0.0, 10.0),
        c_load=rng.uniform(0.0, 10.0),
    )


# ---------------------------------------------------------------------------
# Primal

def test_primal_no_trade_instance():
    lp = build_ed_primal(make_instance(a=80.0, b=75.0))
    oracle_obj, oracle_x = brute_force_optimum(lp)
    assert oracle_obj == pytest.approx(0.0, abs=1e-12)
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(oracle_obj, abs=1e-9)
    assert sol.primal["pl_1"] == pytest.approx(oracle_x["pl_1"], abs=1e-9)


def test_primal_profitable_trade_marginal_generator_sets_price():
    inst = make_instance(a=50.0, b=90.0, p_min=0.2, p_max=1.0, capacity=5.0)
    sol = solve(build_ed_primal(inst))
    assert sol.primal["pl_1"] == pytest.approx(1.0, abs=1e-9)
    assert sol.primal["pg_1"] == pytest.approx(1.0, abs=1e-9)
    assert price_paid_by_load(sol, "balance_1") == pytest.approx(50.0, abs=1e-9)


def test_primal_pinned_zero_load():
    sol = solve(build_ed_primal(make_instance(p_min=0.0, p_max=0.0)))
    assert sol.primal == {"theta_1": 0.0, "pg_1": 0.0, "pl_1": 0.0}
    assert sol.objective_value == 0.0


def test_finite_capacity_becomes_column_bound():
    lp = build_ed_primal(make_instance(capacity=2.0))
    assert lp.columns["pg_1"].upper == 2.0
    lp_inf = build_ed_primal(make_instance())
    assert lp_inf.columns["pg_1"].upper == math.inf


# ---------------------------------------------------------------------------
# Dual

def test_dual_matches_primal_without_cap():
    for seed in range(10):
        inst = random_instance(random.Random(seed), with_cap=False)
        p = solve(build_ed_primal(inst))
        d = solve(build_ed_dual(inst))
        assert d.status == "optimal"
        assert abs(p.objective_value - d.objective_value) <= 1e-6 * (1 + abs(p.objective_value))


def test_dual_with_loose_cap_unchanged():
    inst = make_instance(a=50.0, b=90.0, p_min=0.2, p_max=1.0)
    unconstrained_price = price_paid_by_load(solve(build_ed_primal(inst)), "balance_1")
    loose = make_instance(a=50.0, b=90.0, p_min=0.2, p_max=1.0,
                          cap=unconstrained_price + 25.0)
    d_plain = solve(build_ed_dual(make_instance(a=50.0, b=90.0, p_min=0.2, p_max=1.0)))
    d_capped = solve(build_ed_dual(loose))
    assert d_capped.objective_value == pytest.approx(d_plain.objective_value, abs=1e-9)


def test_dual_equals_flex_primal_on_binding_cap():
    inst = make_instance(a=80.0, b=75.0, cap=70.0)
    d = solve(build_ed_dual(inst))
    f = solve(build_ed_flex_primal(inst))
    assert d.objective_value == pytest.approx(f.objective_value, abs=1e-6)


# ---------------------------------------------------------------------------
# Flexibility primal

def test_flex_covers_load_when_generator_above_cap():
    inst = make_instance(a=80.0, b=90.0, p_min=1.0, p_max=1.0, cap=70.0)
    lp = build_ed_flex_primal(inst)
    oracle_obj, oracle_x = brute_force_optimum(lp)
    assert oracle_x["pflex_1"] == pytest.approx(1.0, abs=1e-9)
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(oracle_obj, abs=1e-9)
    assert sol.primal["pflex_1"] == pytest.approx(1.0, abs=1e-9)
    assert price_paid_by_load(sol, "balance_1") == pytest.approx(70.0, abs=1e-9)


def test_flex_idle_when_cap_above_unconstrained_price():
    inst = make_instance(a=50.0, b=90.0, p_min=0.2, p_max=1.0, cap=60.0)
    sol = solve(build_ed_flex_primal(inst))
    plain = solve(build_ed_primal(make_instance(a=50.0, b=90.0, p_min=0.2, p_max=1.0)))
    assert sol.primal["pflex_1"] == pytest.approx(0.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(plain.objective_value, abs=1e-9)


def test_flex_is_only_feasible_supply_with_zero_capacity():
    inst = make_instance(a=80.0, b=90.0, p_min=1.0, p_max=1.0, capacity=0.0, cap=70.0)
    sol = solve(build_ed_flex_primal(inst))
    assert sol.primal["pflex_1"] == pytest.approx(1.0, abs=1e-9)
    assert price_paid_by_load(sol, "balance_1") == pytest.approx(70.0, abs=1e-9)


def test_flex_requires_cap():
    with pytest.raises(ValueError):
        build_ed_flex_primal(make_instance(cap=None))


# ---------------------------------------------------------------------------
# Chain

def test_chain_without_cap_collapses():
    chain = solve_ed_chain(make_instance(a=50.0, b=90.0, p_min=0.2, p_max=1.0))
    assert chain.max_pairwise_gap == 0.0
    assert chain.result.p_flexreq_mw == 0.0


def test_chain_binding_cap_reports_cap_price():
    chain = solve_ed_chain(make_instance(a=80.0, b=90.0, p_min=1.0, p_max=1.0, cap=70.0))
    assert chain.result.lmp_eur_mwh == pytest.approx(70.0, abs=1e-9)
    assert chain.gap_dual_vs_flex <= 1e-6
    assert chain.gap_unconstrained_vs_flex > 1e-6  # binding cap moves the objective


def test_chain_balance_invariant():
    for seed in range(30):
        inst = random_instance(random.Random(40 + seed), with_cap=True)
        chain = solve_ed_chain(inst)
        res = chain.result
        balance = res.p_g_mw - res.p_l_mw + res.p_flexreq_mw
        assert abs(balance) <= 1e-7, f"seed {seed}: residual {balance}"
        assert res.p_flexreq_mw >= -1e-9


def test_chain_equivalence_100_seeds():
    for seed in range(100):
        inst = random_instance(random.Random(1000 + seed), with_cap=True)
        chain = solve_ed_chain(inst)
        assert chain.gap_dual_vs_flex <= 1e-6, f"seed {seed}: {chain.gap_dual_vs_flex}"


def test_cap_enforcement_property():
    for seed in range(50):
        inst = random_instance(random.Random(2000 + seed), with_cap=True)
        chain = solve_ed_chain(inst)
        assert chain.result.lmp_eur_mwh <= inst.cap + 1e-6, f"seed {seed}"


def test_activation_property():
    # flexibility only appears when the unconstrained price exceeded the cap
    activated = 0
    for seed in range(50):
        inst = random_instance(random.Random(3000 + seed), with_cap=True)
        chain = solve_ed_chain(inst)
        if chain.result.p_flexreq_mw > 1e-9:
            activated += 1
            assert chain.lmp_unconstrained > inst.cap - 1e-6, f"seed {seed}"
    assert activated >= 5, f"too few activated cases to be meaningful: {activated}"


def test_objective_ordering_flex_never_below_unconstrained():
    # the flexibility column can only enlarge the feasible set, so the capped
    # optimum is >= the unconstrained one, with equality iff the cap is slack
    for seed in range(50):
        inst = random_instance(random.Random(4000 + seed), with_cap=True)
        chain = solve_ed_chain(inst)
        assert chain.objective_with_flex >= chain.objective_unconstrained - 1e-9, f"seed {seed}"
        if chain.lmp_unconstrained <= inst.cap - 1e-6:
            assert chain.gap_unconstrained_vs_flex <= 1e-6, f"seed {seed}"


def test_constant_terms_shift_objectives_not_dispatch():
    base = make_instance(a=80.0, b=90.0, p_min=1.0, p_max=1.0, cap=70.0)
    shifted = make_instance(a=80.0, b=90.0, p_min=1.0, p_max=1.0, cap=70.0,
                            c_gen=3.25, c_load=10.5)
    chain0 = solve_ed_chain(base)
    chain1 = solve_ed_chain(shifted)
    offset = 10.5 - 3.25
    assert chain1.objective_with_flex == pytest.approx(
        chain0.objective_with_flex + offset, abs=1e-9)
    assert chain1.result.p_g_mw == chain0.result.p_g_mw
    assert chain1.result.p_l_mw == chain0.result.p_l_mw
    assert chain1.result.p_flexreq_mw == chain0.result.p_flexreq_mw


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("term, problem", [
    ("c_gen", "hour 1: offer at bus 1 has non-finite constant cost"),
    ("c_load", "hour 1: utility at bus 1 has non-finite constant utility"),
])
def test_chain_rejects_non_finite_constant_terms(term, problem, value):
    # these used to give NaN objectives and a NaN gap
    inst = make_instance(a=50.0, b=90.0, p_min=0.2, p_max=1.0, cap=60.0, **{term: value})
    with pytest.raises(ValueError, match=re.escape(problem)):
        solve_ed_chain(inst)


def test_tie_between_cap_and_price_flagged_degenerate():
    inst = make_instance(a=50.0, b=90.0, p_min=0.2, p_max=1.0, cap=50.0)
    chain = solve_ed_chain(inst)
    assert chain.degenerate
    assert chain.gap_dual_vs_flex <= 1e-6


def test_mu_duals_expose_load_bound_shadow_prices():
    inst = make_instance(a=50.0, b=90.0, p_min=0.2, p_max=1.0, cap=95.0)
    chain = solve_ed_chain(inst)
    # load at its upper bound, paying a=50: shadow price of the bound is b - a
    assert chain.result.mu_upper == pytest.approx(40.0, abs=1e-9)
    assert chain.result.mu_lower == pytest.approx(0.0, abs=1e-9)


def test_chain_solves_pass_kkt():
    for seed in range(20):
        inst = random_instance(random.Random(6000 + seed), with_cap=True)
        for build in (build_ed_primal, build_ed_dual, build_ed_flex_primal):
            lp = build(inst)
            sol = solve(lp)
            assert sol.status == "optimal"
            assert verify_kkt(lp, sol).within(1e-6), f"seed {seed}, {build.__name__}"
