"""Hedge pipeline: settlement arithmetic, trace, sweeps, exports."""

import io
import json
import math

import pytest

from flexhedge import simplex
from flexhedge.hedging import (
    _SWEEP_PASS1,
    DsoComputation,
    FlexRequest,
    PriceRequest,
    Settlement,
    coordination_trace,
    format_eur,
    hedge_report_json,
    hourly_revenue,
    read_hedge_csv,
    render_trace,
    run_hedge,
    settlement_bound_notes,
    sweep_pi_des,
    write_hedge_csv,
)
from flexhedge.model import (
    Bus,
    GenOffer,
    HourlyMarketData,
    Line,
    LoadUtility,
    Network,
    PriceCap,
)
from flexhedge.opf import crash_start
from flexhedge.scenario import (
    FINITE_LIMIT_MW,
    ScenarioSpec,
    apply_line_limits,
    build_3bus_network,
    generate_scenario,
)


def firm_hour(hour, a_trans, a_dist=29.0, dist_cap=0.85, load=1.0):
    return HourlyMarketData(
        hour,
        offers=[GenOffer(1, a_trans, 0.0, 5.0), GenOffer(2, a_dist, 0.0, dist_cap)],
        utilities=[LoadUtility(3, 60.0, 0.0, load, load)],
    )


# ---------------------------------------------------------------------------
# Settlement arithmetic

def test_hourly_revenue_formula():
    assert hourly_revenue(76.9, 70.0, 0.33) == pytest.approx(2.277, abs=1e-12)
    assert hourly_revenue(65.0, 70.0, 0.33) == 0.0
    assert hourly_revenue(70.0, 70.0, 0.33) == 0.0


def test_display_rounding_half_up():
    assert format_eur(2.277) == "2.28"
    assert format_eur(19.299) == "19.30"
    assert format_eur(0.0) == "0.00"
    assert format_eur(0.005) == "0.01"
    assert format_eur(2.675) == "2.68"
    # past 28 significant digits: a scenario file can price an hour at 2e27
    assert format_eur(2e27) == "2" + "0" * 27 + ".00"
    assert format_eur(1.7976931348623157e308) == "17976931348623157" + "0" * 292 + ".00"


def test_import_priced_hour_settles_to_cents():
    # import at 76.9 EUR/MWh, 0.33 MW of headroom between firm load and the
    # cheap source: hedging at 70 buys exactly that headroom
    series = [firm_hour(1, a_trans=76.9, dist_cap=0.67, load=1.0)]
    run = run_hedge(build_3bus_network("infinite"), series, PriceCap(3, 70.0))
    hour = run.report.hours[0]
    assert hour.lambda_unconstrained == pytest.approx(76.9, abs=1e-9)
    assert hour.p_flexreq_mw == pytest.approx(0.33, abs=1e-9)
    assert hour.revenue_eur == pytest.approx(2.277, abs=1e-12)
    assert format_eur(hour.revenue_eur) == "2.28"


def test_congestion_spike_hour_settles_to_cents():
    series = [firm_hour(17, a_trans=77.07, a_dist=29.0, load=1.2)]
    run = run_hedge(build_3bus_network("finite"), series, PriceCap(3, 70.0))
    hour = run.report.hours[0]
    assert hour.lambda_unconstrained == pytest.approx(125.14, abs=1e-9)
    assert hour.p_flexreq_mw == pytest.approx(0.35, abs=1e-9)
    assert hour.revenue_eur == pytest.approx(19.299, abs=1e-12)
    assert format_eur(hour.revenue_eur) == "19.30"


def test_inactive_cap_changes_nothing():
    scenario = generate_scenario(ScenarioSpec(seed=4))
    run = run_hedge(scenario.network, scenario.hours, PriceCap(3, 1e6))
    report = run.report
    assert report.total_revenue_eur == 0.0
    assert report.hours_active == 0
    for hour in report.hours:
        assert hour.p_flexreq_mw == pytest.approx(0.0, abs=1e-9)
        assert hour.lambda_hedged == pytest.approx(hour.lambda_unconstrained, abs=1e-9)


def test_report_invariants_on_preset():
    for case in ("infinite", "finite"):
        scenario = generate_scenario(ScenarioSpec(seed=11, line_limit_case=case))
        run = run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
        report = run.report
        total = 0.0
        for hour in report.hours:
            assert hour.included
            expected = hourly_revenue(hour.lambda_unconstrained, 70.0, hour.p_flexreq_mw)
            assert hour.revenue_eur == pytest.approx(expected, abs=1e-12)
            assert hour.revenue_eur >= 0.0
            if hour.p_flexreq_mw > 1e-9:
                assert hour.lambda_hedged <= 70.0 + 1e-6
            total += hour.revenue_eur
        assert report.total_revenue_eur == pytest.approx(total, abs=1e-12)


def test_revenue_upper_bound_is_bus_load():
    scenario = generate_scenario(ScenarioSpec(seed=13, line_limit_case="finite"))
    run = run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    for data, hour in zip(scenario.hours, run.report.hours):
        load = data.utility_at(3).p_max_mw
        if hour.lambda_unconstrained > 70.0:
            bound = (hour.lambda_unconstrained - 70.0) * load
            assert hour.revenue_eur <= bound + 1e-9, f"hour {hour.hour}"
    assert settlement_bound_notes(run.report, scenario.hours) == []


def test_paper_study_pivot_path_is_pinned(monkeypatch):
    # a change in a pivot rule or in the basis arithmetic shows up here first
    programs, solutions = [], []
    original = simplex.solve_program

    def recording(lp):
        programs.append(lp)
        solutions.append(original(lp))
        return solutions[-1]

    monkeypatch.setattr(simplex, "solve_program", recording)
    scenario = generate_scenario(ScenarioSpec(seed=7, line_limit_case="finite"))
    run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    assert len(solutions) == 48
    # pass 1 starts each hour from the network's crash basis
    assert all(p.start == crash_start(scenario.network, data)
               for p, data in zip(programs[:24], scenario.hours))
    assert sum(s.iterations for s in solutions[:24]) == 48
    # pass 2 starts each hour from pass 1's optimal basis
    assert all(p.start == (s.basis, s.nonbasic_at_upper)
               for p, s in zip(programs[24:], solutions[:24]))
    assert sum(s.iterations for s in solutions[24:]) == 47
    for prog in programs[24:]:
        prog.start = None
    cold = [original(p) for p in programs[24:]]
    assert sum(s.iterations for s in cold) == 191
    # from the slack basis, the row order of the final basis records which
    # tied row left at each pivot, and which tied column entered
    assert cold[0].basis == (
        "theta_3", "theta_1", "theta_2", "pg_2",
        "slack:flow_hi_1_2", "slack:flow_lo_1_2", "slack:flow_hi_1_3",
        "slack:flow_lo_1_3", "slack:flow_hi_2_3", "slack:flow_lo_2_3")


def test_two_pass_consistency():
    scenario = generate_scenario(ScenarioSpec(seed=21))
    from flexhedge.opf import solve_opf_series
    once = solve_opf_series(scenario.network, list(scenario.hours))
    again = solve_opf_series(scenario.network, list(scenario.hours))
    assert once == again


def test_infeasible_first_pass_flagged_and_excluded():
    # firm load larger than every corridor: only flexibility can serve it
    net = Network(
        buses=[Bus(1, is_slack=True), Bus(2), Bus(3, price_constrained=True)],
        lines=[Line(1, 2, 0.1, 1.0), Line(1, 3, 0.1, 0.3), Line(2, 3, 0.1, 0.3)],
    )
    series = [firm_hour(1, a_trans=77.0, load=1.0),
              firm_hour(2, a_trans=77.0, load=0.4)]
    run = run_hedge(net, series, PriceCap(3, 70.0))
    report = run.report

    flagged = report.hours[0]
    assert not flagged.included
    assert flagged.lambda_unconstrained is None
    assert flagged.revenue_eur is None
    assert flagged.p_flexreq_mw > 0.0  # flexibility restored feasibility

    assert report.hours[1].included
    assert report.excluded_hours == (1,)
    assert report.warning_count == 1
    assert report.total_revenue_eur == pytest.approx(report.hours[1].revenue_eur)


# ---------------------------------------------------------------------------
# Coordination trace

def test_trace_inactive_report_is_price_request_only():
    scenario = generate_scenario(ScenarioSpec(seed=4))
    run = run_hedge(scenario.network, scenario.hours, PriceCap(3, 1e6))
    events = coordination_trace(run.report)
    assert len(events) == 1
    assert isinstance(events[0], PriceRequest)


def test_trace_single_active_hour_has_four_events():
    series = [firm_hour(1, a_trans=76.9, dist_cap=0.67, load=1.0)]
    run = run_hedge(build_3bus_network("infinite"), series, PriceCap(3, 70.0))
    events = coordination_trace(run.report)
    assert len(events) == 4
    assert [type(e) for e in events] == [PriceRequest, DsoComputation, FlexRequest, Settlement]
    assert events[3].amount_eur == pytest.approx(2.277, abs=1e-12)


def test_trace_settlements_sum_to_total():
    scenario = generate_scenario(ScenarioSpec(seed=11, line_limit_case="finite"))
    run = run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    events = coordination_trace(run.report)
    settled = sum(e.amount_eur for e in events if isinstance(e, Settlement))
    assert settled == pytest.approx(run.report.total_revenue_eur, abs=1e-12)


def test_trace_renders_deterministically():
    series = [firm_hour(1, a_trans=76.9, dist_cap=0.67, load=1.0)]
    run = run_hedge(build_3bus_network("infinite"), series, PriceCap(3, 70.0))
    text = render_trace(coordination_trace(run.report))
    assert text.splitlines()[0] == "PriceRequest bus=3 pi_des=70.0"
    assert "Settlement hour=1" in text


# ---------------------------------------------------------------------------
# Sweep

def test_sweep_shape_and_ordering():
    scenario = generate_scenario(ScenarioSpec(seed=7))
    result = sweep_pi_des(
        scenario.network, scenario.hours, 3, [68.0, 70.0, 72.0],
        scenarios={"uncongested": None, "congested": {(2, 3): 0.6}},
    )
    assert len(result.rows) == 6
    assert result.monotonicity_warnings == ()

    by_label = {}
    for row in result.rows:
        by_label.setdefault(row.scenario, []).append(row.total_revenue_eur)
    for label, revenues in by_label.items():
        assert revenues == sorted(revenues, reverse=True), label
    for a, b in zip(by_label["uncongested"], by_label["congested"]):
        assert b >= a  # congestion spikes can only add revenue


def test_sweep_rejects_bad_pi_lists():
    scenario = generate_scenario(ScenarioSpec(seed=7))
    with pytest.raises(ValueError, match="non-empty"):
        sweep_pi_des(scenario.network, scenario.hours, 3, [], {"base": None})
    with pytest.raises(ValueError, match="ascending"):
        sweep_pi_des(scenario.network, scenario.hours, 3, [72.0, 70.0], {"base": None})


def test_sweep_loose_limit_equals_unlimited():
    scenario = generate_scenario(ScenarioSpec(seed=7))
    result = sweep_pi_des(
        scenario.network, scenario.hours, 3, [70.0],
        scenarios={"base": None, "loose": {(2, 3): 5.0}},
    )
    base, loose = result.rows[0], result.rows[1]
    assert loose.total_revenue_eur == pytest.approx(base.total_revenue_eur, abs=1e-12)


def count_solves(monkeypatch) -> list:
    calls = []
    original = simplex.solve_program

    def counting(lp):
        calls.append(lp)
        return original(lp)

    monkeypatch.setattr(simplex, "solve_program", counting)
    return calls


def test_sweep_solves_pass1_once_per_case(monkeypatch):
    scenario = generate_scenario(ScenarioSpec(seed=7))
    cases = {"infinite": None, "finite": {(2, 3): FINITE_LIMIT_MW}}
    caps = [60.0, 70.0, 80.0]
    calls = count_solves(monkeypatch)
    result = sweep_pi_des(scenario.network, scenario.hours, 3, caps, cases)
    # one 24-hour pass 1 per case, one 24-hour pass 2 per (case, cap)
    assert len(calls) == 2 * 24 + 6 * 24
    for row in result.rows:
        overrides = cases[row.scenario]
        net = scenario.network if overrides is None else \
            apply_line_limits(scenario.network, overrides)
        alone = run_hedge(net, scenario.hours, PriceCap(3, row.pi_des))
        assert row.total_revenue_eur == alone.report.total_revenue_eur, row


def test_pass1_reuse_is_scoped_to_one_sweep(monkeypatch):
    scenario = generate_scenario(ScenarioSpec(seed=7))
    calls = count_solves(monkeypatch)
    run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    assert len(calls) == 48
    run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    assert len(calls) == 96
    # a sweep that fails part-way still drops its pass-1 results
    with pytest.raises(ValueError, match="non-finite"):
        sweep_pi_des(scenario.network, scenario.hours, 3, [70.0, math.inf], {"base": None})
    assert _SWEEP_PASS1.get() is None
    run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    assert len(calls) == 96 + 48 + 48


def test_sweep_reads_an_iterator_like_a_tuple():
    scenario = generate_scenario(ScenarioSpec(seed=7))
    args = (3, [60.0, 70.0], {"base": None})
    from_tuple = sweep_pi_des(scenario.network, tuple(scenario.hours), *args)
    assert sweep_pi_des(scenario.network, iter(scenario.hours), *args) == from_tuple
    assert all(row.total_revenue_eur > 0 for row in from_tuple.rows)


def test_sweep_zero_cap_counts_full_price():
    series = [firm_hour(1, a_trans=76.9, dist_cap=0.67, load=1.0)]
    net = build_3bus_network("infinite")
    result = sweep_pi_des(net, series, 3, [0.0], scenarios={"base": None})
    run = run_hedge(net, series, PriceCap(3, 0.0))
    expected = sum(h.lambda_unconstrained * h.p_flexreq_mw for h in run.report.hours)
    assert result.rows[0].total_revenue_eur == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# Exports

def test_hedge_csv_round_trip():
    scenario = generate_scenario(ScenarioSpec(seed=11, line_limit_case="finite"))
    run = run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    buf = io.StringIO()
    write_hedge_csv(run.report, buf)
    buf.seek(0)
    rows = read_hedge_csv(buf)
    assert len(rows) == 24
    for row, hour in zip(rows, run.report.hours):
        assert row["hour"] == hour.hour
        assert row["lambda_unconstrained_eur_mwh"] == hour.lambda_unconstrained
        assert row["p_flexreq_mw"] == hour.p_flexreq_mw
        assert row["revenue_eur"] == hour.revenue_eur


def test_hedge_json_schema():
    scenario = generate_scenario(ScenarioSpec(seed=11))
    run = run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    doc = json.loads(hedge_report_json(run.report))
    assert doc["schema"] == "flexhedge/hedge-report/1"
    assert doc["bus"] == 3
    assert doc["pi_des_eur_mwh"] == 70.0
    assert len(doc["hours"]) == 24
    totals = doc["totals"]
    assert totals["total_revenue_eur"] == pytest.approx(run.report.total_revenue_eur)
    assert totals["hours_active"] == run.report.hours_active
    assert totals["excluded_hours"] == []
    active = [h for h in doc["hours"] if h["p_flexreq_mw"] > 1e-9]
    assert len(active) == totals["hours_active"]
    for h in active:
        assert h["revenue_display"] == format_eur(h["revenue_eur"])
