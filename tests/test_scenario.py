"""Scenario generation: seeding, sampling windows, presets, scenario files."""

import io

import pytest

from flexhedge.model import Bus, Line, Network
from flexhedge.opf import solve_opf_hour
from flexhedge.scenario import (
    DEFAULT_LOAD_PROFILE_MW,
    DEFAULT_WHOLESALE_EUR_MWH,
    ScenarioError,
    ScenarioSpec,
    SplitMix64,
    apply_line_limits,
    build_3bus_network,
    generate_scenario,
    load_scenario_file,
    preset_spec,
    write_scenario_file,
)

from oracles import valid_hour


def test_splitmix64_reference_vector():
    # first three outputs for seed 0, from the reference implementation
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]


def test_splitmix64_uniform_ranges():
    g = SplitMix64(7)
    for _ in range(1000):
        u = g.uniform(2.0, 3.0)
        assert 2.0 <= u < 3.0
        v = g.uniform_open(2.0, 3.0)
        assert 2.0 < v < 3.0


def test_same_seed_same_scenario():
    spec = ScenarioSpec(seed=42)
    assert generate_scenario(spec) == generate_scenario(spec)


def test_different_seed_different_scenario():
    a = generate_scenario(ScenarioSpec(seed=1))
    b = generate_scenario(ScenarioSpec(seed=2))
    assert a != b


def test_dist_cost_respects_scale_down():
    for seed in range(10):
        scenario = generate_scenario(ScenarioSpec(seed=seed))
        for data in scenario.hours:
            wholesale = data.offer_at(1).marginal_cost
            dist = data.offer_at(2).marginal_cost
            assert dist <= 0.7 * wholesale + 1e-12, f"seed {seed} hour {data.hour}"


def test_coefficient_ordering_strict():
    for seed in range(10):
        scenario = generate_scenario(ScenarioSpec(seed=seed))
        for data in scenario.hours:
            a_trans = data.offer_at(1).marginal_cost
            a_dist = data.offer_at(2).marginal_cost
            b_load = data.utility_at(3).marginal_utility
            assert a_dist < b_load < a_trans, f"seed {seed} hour {data.hour}"


def test_generated_scenario_dispatches_merit_order():
    scenario = generate_scenario(ScenarioSpec(seed=5))
    for data in scenario.hours:
        res = solve_opf_hour(valid_hour(scenario.network, data))
        load = sum(res.p_l_mw.values())
        dist_cap = data.offer_at(2).capacity_mw
        expected_dist = min(load, dist_cap)
        assert res.p_g_mw[2] == pytest.approx(expected_dist, abs=1e-7), f"hour {data.hour}"
        assert res.p_g_mw[1] == pytest.approx(load - expected_dist, abs=1e-7)


def test_spec_validation():
    assert ScenarioSpec().validate() == []
    with pytest.raises(ScenarioError,
                       match=r"line_limit_case must be infinite\|finite, got 'tight'"):
        generate_scenario(ScenarioSpec(line_limit_case="tight"))


def test_preset_networks():
    buses = [Bus(1, is_slack=True), Bus(2), Bus(3, price_constrained=True)]
    assert build_3bus_network("infinite") == Network(
        buses, [Line(1, 2, 0.1, 1.0), Line(1, 3, 0.1, 1.0), Line(2, 3, 0.1, 1.0)])
    assert build_3bus_network("finite") == Network(
        buses, [Line(1, 2, 0.1, 1.0), Line(1, 3, 0.1, 1.0), Line(2, 3, 0.1, 0.6)])
    with pytest.raises(ScenarioError, match="unknown line limit case 'tight'"):
        build_3bus_network("tight")
    with pytest.raises(ScenarioError, match="unknown preset"):
        preset_spec("nope")


def test_line_limit_overrides():
    net = apply_line_limits(build_3bus_network("infinite"), {(3, 2): 0.42})
    assert net.lines[2].flow_limit_mw == 0.42
    overridden = apply_line_limits(net, {(1, 2): 0.9})
    assert overridden.lines[0].flow_limit_mw == 0.9
    assert overridden.lines[2].flow_limit_mw == 0.42
    with pytest.raises(ScenarioError, match="unknown line"):
        apply_line_limits(net, {(1, 9): 1.0})


def test_finite_case_congests_at_peak():
    scenario = generate_scenario(ScenarioSpec(seed=3, line_limit_case="finite"))
    congested_hours = []
    for data in scenario.hours:
        res = solve_opf_hour(valid_hour(scenario.network, data))
        if res.congestion_dual_eur_mwh[(2, 3)] > 1e-6:
            congested_hours.append(data.hour)
    assert congested_hours == list(range(14, 23))


def test_generated_scenario_file_round_trip():
    scenario = generate_scenario(ScenarioSpec(seed=9, line_limit_case="finite"))
    buf = io.StringIO()
    write_scenario_file(scenario.network, scenario.hours, buf)
    buf.seek(0)
    net, hours = load_scenario_file(buf)
    assert net == scenario.network
    assert hours == scenario.hours


def test_custom_wholesale_series_used_verbatim():
    scenario = generate_scenario(ScenarioSpec(seed=1))
    assert [data.offer_at(1).marginal_cost for data in scenario.hours] == \
        list(DEFAULT_WHOLESALE_EUR_MWH)
    assert [(data.utility_at(3).p_min_mw, data.utility_at(3).p_max_mw)
            for data in scenario.hours] == [(p, p) for p in DEFAULT_LOAD_PROFILE_MW]
