"""Scenario generation: seeding, sampling windows, presets, CSV ingestion."""

import io

import pytest

from flexhedge.opf import OpfHourInput, solve_opf_hour
from flexhedge.scenario import (
    DEFAULT_WHOLESALE_EUR_MWH,
    ScenarioError,
    ScenarioSpec,
    SplitMix64,
    apply_line_limits,
    build_3bus_network,
    generate_scenario,
    load_price_csv,
    load_scenario_file,
    preset_spec,
    write_scenario_file,
)


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
        scenario = generate_scenario(ScenarioSpec(seed=seed, dist_scale=0.30))
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
        res = solve_opf_hour(OpfHourInput(scenario.network, data))
        load = sum(res.p_l_mw.values())
        dist_cap = data.offer_at(2).capacity_mw
        expected_dist = min(load, dist_cap)
        assert res.p_g_mw[2] == pytest.approx(expected_dist, abs=1e-7), f"hour {data.hour}"
        assert res.p_g_mw[1] == pytest.approx(load - expected_dist, abs=1e-7)


def test_spec_validation():
    assert ScenarioSpec().validate() == []
    bad_scale = ScenarioSpec(dist_scale=1.5)
    with pytest.raises(ScenarioError, match="dist_scale"):
        generate_scenario(bad_scale)
    short = ScenarioSpec(wholesale_series=(50.0,) * 23)
    with pytest.raises(ScenarioError, match="24 entries"):
        generate_scenario(short)
    inverted = ScenarioSpec(load_bounds=((1.0, 0.5),) + ((0.5, 0.5),) * 23)
    with pytest.raises(ScenarioError, match="load_bounds hour 1"):
        generate_scenario(inverted)


def test_preset_networks():
    infinite = build_3bus_network("infinite")
    assert [line.flow_limit_mw for line in infinite.lines] == [1.0, 1.0, 1.0]
    finite = build_3bus_network("finite")
    assert [line.flow_limit_mw for line in finite.lines] == [1.0, 1.0, 0.6]
    assert all(line.reactance_pu == 0.1 for line in finite.lines)
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
        res = solve_opf_hour(OpfHourInput(scenario.network, data))
        if res.congestion_dual_eur_mwh[(2, 3)] > 1e-6:
            congested_hours.append(data.hour)
    assert congested_hours == list(range(14, 23))


def price_csv(rows) -> io.StringIO:
    return io.StringIO("hour,price_eur_mwh\n" + "\n".join(rows) + "\n")


def test_load_price_csv_well_formed():
    rows = [f"{h},{p}" for h, p in enumerate(DEFAULT_WHOLESALE_EUR_MWH, start=1)]
    series = load_price_csv(price_csv(rows))
    assert series == DEFAULT_WHOLESALE_EUR_MWH


def test_load_price_csv_accepts_shuffled_hours():
    rows = [f"{h},{float(h)}" for h in range(1, 25)]
    rows.reverse()
    series = load_price_csv(price_csv(rows))
    assert series == tuple(float(h) for h in range(1, 25))


def test_load_price_csv_wrong_count():
    rows = [f"{h},{50.0}" for h in range(1, 24)]
    with pytest.raises(ScenarioError, match="expected 24 data rows, found 23"):
        load_price_csv(price_csv(rows))


def test_load_price_csv_duplicate_hour():
    rows = [f"{h},{50.0}" for h in range(1, 25)] + ["13,51.0"]
    with pytest.raises(ScenarioError, match="duplicate hour 13"):
        load_price_csv(price_csv(rows))


def test_load_price_csv_rejects_nan_and_negative():
    rows = [f"{h},{50.0}" for h in range(1, 24)] + ["24,nan"]
    with pytest.raises(ScenarioError, match="row 25: price is NaN"):
        load_price_csv(price_csv(rows))
    rows = [f"{h},{50.0}" for h in range(1, 24)] + ["24,-3"]
    with pytest.raises(ScenarioError, match="row 25: negative price"):
        load_price_csv(price_csv(rows))


def test_load_price_csv_unparsable_row():
    rows = [f"{h},{50.0}" for h in range(1, 24)] + ["24,abc"]
    with pytest.raises(ScenarioError, match="row 25: could not parse"):
        load_price_csv(price_csv(rows))


def test_load_price_csv_bad_header():
    with pytest.raises(ScenarioError, match="header"):
        load_price_csv(io.StringIO("h,p\n1,50\n"))


def test_generated_scenario_file_round_trip():
    scenario = generate_scenario(ScenarioSpec(seed=9, line_limit_case="finite"))
    buf = io.StringIO()
    write_scenario_file(scenario.network, scenario.hours, buf)
    buf.seek(0)
    net, hours = load_scenario_file(buf)
    assert net == scenario.network
    assert hours == scenario.hours


def test_custom_wholesale_series_used_verbatim():
    series = tuple(40.0 + h for h in range(24))
    scenario = generate_scenario(ScenarioSpec(wholesale_series=series, seed=1))
    for data, expected in zip(scenario.hours, series):
        assert data.offer_at(1).marginal_cost == expected
