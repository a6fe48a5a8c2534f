"""Scenario generation: seeding, sampling windows, presets, scenario files."""

import io
import math

import pytest

from flexhedge.model import Bus, GenOffer, HourlyMarketData, Line, LoadUtility, Network
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
    read_sections,
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


def test_seed_outside_64_bits_is_rejected():
    # SplitMix64 masks its seed to 64 bits, so a seed past either end would
    # silently repeat another seed's scenario
    assert ScenarioSpec(seed=0).validate() == ScenarioSpec(seed=2**64 - 1).validate() == []
    for seed in (-1, 2**64, 2**64 + 7):
        assert ScenarioSpec(seed=seed).validate() == \
            [f"seed must be in 0..18446744073709551615, got {seed}"]
    with pytest.raises(ScenarioError) as error:
        generate_scenario(ScenarioSpec(seed=-1, line_limit_case="tight"))
    assert error.value.args == ("seed must be in 0..18446744073709551615, got -1",
                                "line_limit_case must be infinite|finite, got 'tight'")


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


def preset_lines() -> list[str]:
    scenario = generate_scenario(ScenarioSpec(seed=1))
    buf = io.StringIO()
    write_scenario_file(scenario.network, scenario.hours, buf)
    return buf.getvalue().splitlines(keepends=True)


def load_error(lines) -> str:
    with pytest.raises(ScenarioError) as exc:
        load_scenario_file(lines)
    return str(exc.value)


@pytest.mark.parametrize("section, fields", [
    ("buses", "id flags"), ("lines", "from to reactance limit"),
    ("offers", "hour bus a c capacity"), ("utilities", "hour bus b c min max")])
def test_short_row_names_its_section_fields(section, fields):
    lines = preset_lines()
    lineno = lines.index(f"[{section}]\n") + 3  # the header, its comment, the row
    lines[lineno - 1] = lines[lineno - 1].rsplit(" ", 1)[0] + "\n"
    assert load_error(lines) == f"line {lineno}: [{section}] rows need '{fields}'"


@pytest.mark.parametrize("section, field, problem", [
    ("lines", 0, "not an integer"), ("lines", 3, "not a number"),
    ("offers", 1, "not an integer"), ("offers", 2, "not a number"),
    ("utilities", 0, "not an integer"), ("utilities", 4, "not a number")])
def test_bad_number_names_its_line(section, field, problem):
    # test_cli.py::test_non_integer_field_names_its_line pins the other integer fields
    lines = preset_lines()
    lineno = lines.index(f"[{section}]\n") + 3
    fields = lines[lineno - 1].split()
    fields[field] = "1.5x"
    lines[lineno - 1] = " ".join(fields) + "\n"
    assert load_error(lines) == f"line {lineno}: {problem}: '1.5x'"


def test_unknown_section_is_named_at_its_header():
    lines = preset_lines() + ["\n", "[storage]  # no rows\n"]
    assert load_error(lines) == f"line {len(lines)}: unknown section [storage]"
    assert load_error(["2 -\n"]) == "line 1: data before any section header"


def test_read_sections_without_known_yields_every_section():
    text = "a = 1\n[run]\n# comment\n\nseed = 7  # seven\n[other]\nx\n"
    assert list(read_sections(text.splitlines())) == [
        (1, None, "a = 1"), (5, "run", "seed = 7"), (7, "other", "x")]
    with pytest.raises(ScenarioError, match=r"^line 6: unknown section \[other\]$"):
        list(read_sections(text.splitlines(), known=("run",)))


def rewritten(net, hours) -> str:
    buf = io.StringIO()
    write_scenario_file(net, hours, buf)
    first = buf.getvalue()
    buf = io.StringIO()
    write_scenario_file(*load_scenario_file(io.StringIO(first)), buf)
    assert buf.getvalue() == first
    return first


def test_scenario_file_rewrites_byte_identical():
    from test_mesh_oracle import seeded_mesh

    net, hours, _ = seeded_mesh(30, 1)
    rewritten(net, hours)
    # an unlimited line and int-typed costs print as floats, and read back so
    net = Network([Bus(1, is_slack=True), Bus(2, price_constrained=True)],
                  [Line(1, 2, 1, math.inf)])
    hour = HourlyMarketData(1, [GenOffer(1, 40, 2, 5)], [LoadUtility(2, 60, 0, 1, 1)])
    text = rewritten(net, [hour])
    assert "1 2 1.0 inf\n" in text and "1 1 40.0 2.0 5.0\n" in text
