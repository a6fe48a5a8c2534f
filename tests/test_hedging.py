"""Hedge pipeline: settlement arithmetic, trace, sweeps, exports."""

import csv
import io
import json
import math
from dataclasses import replace

import pytest

from flexhedge import hedging, opf, simplex
from flexhedge.hedging import (
    DsoComputation,
    FlexRequest,
    PriceRequest,
    Settlement,
    HEDGE_CSV_COLUMNS,
    coordination_trace,
    format_eur,
    hedge_report_json,
    hourly_revenue,
    render_trace,
    run_hedge,
    settlement_bound_notes,
    sweep_pi_des,
    write_hedge_csv,
)
from flexhedge.economic_dispatch import EdInstance, solve_ed_chain
from flexhedge.lp import LinearProgram, solve, verify_kkt
from flexhedge.model import (
    Bus,
    GenOffer,
    HourlyMarketData,
    Line,
    LoadUtility,
    Network,
    PriceCap,
    validate_market_data,
)
from flexhedge.opf import Grid, build_opf, solve_opf_hour, solve_opf_series, write_dispatch_csv
from flexhedge.scenario import (
    FINITE_LIMIT_MW,
    ScenarioSpec,
    apply_line_limits,
    build_3bus_network,
    generate_scenario,
    preset_spec,
)

from oracles import brute_force_optimum, valid_hour


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


def test_settlements_above_the_competing_supply_ceiling_are_noted():
    # a cap at 0.8 of the 10-bus mesh's median price settles 14 hours above
    # what a competing supplier at the cap would have earned
    from test_mesh_oracle import seeded_mesh  # it imports this module

    net, hours, cap = seeded_mesh(10, 1)
    assert cap == PriceCap(10, 74.35)
    notes = settlement_bound_notes(run_hedge(net, hours, PriceCap(10, 59.48)).report, hours)
    assert len(notes) == 14
    assert notes[0] == ("hour 9: settlement 25.246426 EUR exceeds the "
                        "competing-supply ceiling 17.123084 EUR")


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
    cap = PriceCap(3, 70.0)
    run = run_hedge(scenario.network, scenario.hours, cap)
    # pass 2 solves only the 14 hours priced above the cap
    assert len(solutions) == 24 + 14
    # pass 1 starts each hour from the network's crash basis
    grid = Grid(scenario.network)
    assert all(p.start == grid.layout(hour).crash
               for p, hour in zip(programs[:24], grid.hours(scenario.hours)))
    assert sum(s.iterations for s in solutions[:24]) == 48
    # pass 2 starts each hour it solves from pass 1's optimal basis
    binding = [(data, unc) for data, unc in zip(scenario.hours, run.unconstrained)
               if unc.lmp_eur_mwh[3] > 70.0]
    assert [p.name for p in programs[24:]] == [f"opf_h{data.hour}" for data, _ in binding]
    assert all(p.start == unc.basis for p, (_, unc) in zip(programs[24:], binding))
    assert sum(s.iterations for s in solutions[24:]) == 37
    # every hour's pass-2 program solved warm: the 10 hours priced at or below
    # the cap stop at their first pricing step, one iteration each
    programs = [build_opf(valid_hour(scenario.network, data, (cap,))) for data in scenario.hours]
    for prog, unc in zip(programs, run.unconstrained):
        prog.start = unc.basis
    assert sum(original(p).iterations for p in programs) == 47
    for prog in programs:
        prog.start = None
    cold = [original(p) for p in programs]
    assert sum(s.iterations for s in cold) == 191
    # from the slack basis, the row order of the final basis records which
    # tied row left at each pivot, and which tied column entered
    assert cold[0].basis == (
        "theta_3", "theta_1", "theta_2", "pg_2",
        "slack:flow_hi_1_2", "slack:flow_lo_1_2", "slack:flow_hi_1_3",
        "slack:flow_lo_1_3", "slack:flow_hi_2_3", "slack:flow_lo_2_3")


def test_two_pass_consistency():
    scenario = generate_scenario(ScenarioSpec(seed=21))
    once = solve_opf_series(scenario.network, list(scenario.hours))
    again = solve_opf_series(scenario.network, list(scenario.hours))
    assert once == again


def test_hour_infeasible_in_both_passes_is_excluded():
    # bus 2's firm load exceeds both corridors into it, and flexibility at
    # bus 3 reaches bus 2 only through one of them
    net = Network(
        buses=[Bus(1, is_slack=True), Bus(2), Bus(3, price_constrained=True)],
        lines=[Line(1, 2, 0.1, 0.1), Line(1, 3, 0.1), Line(2, 3, 0.1, 0.1)],
    )
    series = [HourlyMarketData(hour, [GenOffer(1, 40.0, 0.0, 5.0)],
                               [LoadUtility(2, 60.0, 0.0, load, load)])
              for hour, load in ((1, 1.0), (2, 0.15))]
    run = run_hedge(net, series, PriceCap(3, 70.0))
    assert run.unconstrained[0] is None and run.hedged[0] is None
    flagged = run.report.hours[0]
    assert (flagged.lambda_unconstrained, flagged.lambda_hedged) == (None, None)
    assert flagged.p_flexreq_mw == 0.0 and not flagged.included
    assert run.report.excluded_hours == (1,)
    for results in (run.unconstrained, run.hedged):
        buf = io.StringIO()
        write_dispatch_csv(results, buf)
        buf.seek(0)
        assert {row["hour"] for row in csv.DictReader(buf)} == {"2"}


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


def pass2_solved(monkeypatch, net, series, cap) -> list[str]:
    """Run ``run_hedge``, check that its pass 2 ``==`` every hour solved warm
    from pass 1's optimal basis, and return the pass-2 programs it solved."""
    calls = count_solves(monkeypatch)
    run = run_hedge(net, series, cap)
    monkeypatch.undo()
    # each hour's pass-2 program, warm from pass 1's optimal basis
    warm = [solve_opf_hour(hour, None if r is None else r.basis)
            for hour, r in zip(Grid(net).hours(series, (cap,)), run.unconstrained)]
    assert run.hedged == tuple(warm)
    return [prog.name for prog in calls[len(series):]]


@pytest.mark.parametrize("case", ["infinite", "finite"])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_pass2_keeps_pass1_vertex_only_where_a_solve_would(monkeypatch, seed, case):
    scenario = generate_scenario(ScenarioSpec(seed=seed, line_limit_case=case))
    solved = [pass2_solved(monkeypatch, scenario.network, scenario.hours, PriceCap(3, float(pi)))
              for pi in range(60, 81)]
    assert 0 < sum(map(len, solved)) < 21 * 24


def test_cap_at_the_unconstrained_price(monkeypatch):
    scenario = generate_scenario(ScenarioSpec(seed=7, line_limit_case="finite"))
    net, hours = scenario.network, scenario.hours
    prices = [r.lmp_eur_mwh[3] for r in solve_opf_series(net, hours)]
    # a cap exactly at the price prices flexibility at zero reduced cost
    assert pass2_solved(monkeypatch, net, hours, PriceCap(3, prices[16])) == \
        [f"opf_h{h}" for h, p in enumerate(prices, 1) if p > prices[16]]
    assert pass2_solved(monkeypatch, net, hours, PriceCap(3, tuple(prices))) == []
    # per-hour caps: every odd hour's cap sits 5 EUR/MWh below its price
    caps = tuple(p - 5.0 * (h % 2) for h, p in enumerate(prices, 1))
    assert pass2_solved(monkeypatch, net, hours, PriceCap(3, caps)) == \
        [f"opf_h{h}" for h in range(1, 25, 2)]


def test_degenerate_first_pass_hour_keeps_its_vertex(monkeypatch):
    # hour 1: the cheap source exactly covers the firm load, so pg_1 is basic at 0
    series = [firm_hour(1, a_trans=50.0, dist_cap=1.0), firm_hour(2, a_trans=50.0)]
    net = build_3bus_network("infinite")
    pass1 = solve_opf_series(net, series)
    assert [r.degenerate for r in pass1] == [True, False]
    assert all(r.lmp_eur_mwh[3] <= 70.0 for r in pass1)
    assert pass2_solved(monkeypatch, net, series, PriceCap(3, 70.0)) == []


def record_solves(monkeypatch) -> tuple[list, list]:
    """Record each ``simplex.solve_program`` call's program and solution, and
    each ``simplex._solve_from`` run, until ``monkeypatch`` is undone."""
    runs = count_calls(monkeypatch, simplex._solve_from, simplex)
    solved = []
    original = simplex.solve_program

    def solving(lp):
        solved.append((lp, original(lp)))
        return solved[-1][1]

    monkeypatch.setattr(simplex, "solve_program", solving)
    return solved, runs


def test_an_infeasible_hour_is_solved_once(monkeypatch):
    # line 2-3 at 0.3 MW leaves hours 11-22 with no vertex before flexibility;
    # a start's result stands, infeasible or degenerate, so each solve is one run
    scenario = generate_scenario(preset_spec("paper-3bus", case="finite", seed=7))
    net = apply_line_limits(scenario.network, {(2, 3): 0.3})
    solved, runs = record_solves(monkeypatch)
    run_hedge(net, scenario.hours, PriceCap(3, 70.0))
    assert (len(solved), len(runs)) == (42, 42)
    infeasible = [lp for lp, sol in solved[:24] if sol.status == "infeasible"]
    assert [lp.name for lp in infeasible] == [f"opf_h{h}" for h in range(11, 23)]
    assert solved[9][0].name == "opf_h10" and solved[9][1].degenerate
    for lp in infeasible:
        assert brute_force_optimum(lp) == (None, None), lp.name


def degenerate_day():
    """In each odd hour the local offer exactly covers the 1 MW firm load, so
    pg_1 is basic at 0 and pass 1's optimum is degenerate; each even hour h
    imports at 50 + h EUR/MWh."""
    return build_3bus_network("infinite"), [
        firm_hour(h, a_trans=50.0, dist_cap=1.0) if h % 2 else firm_hour(h, a_trans=50.0 + h)
        for h in range(1, 25)]


def test_a_day_of_degenerate_hours_solves_each_once(monkeypatch):
    # pass 1 solves 24 hours, pass 2 only hours 22 and 24, priced above the cap;
    # each degenerate hour keeps its first-pass vertex and is not solved again
    net, series = degenerate_day()
    solved, runs = record_solves(monkeypatch)
    report = run_hedge(net, series, PriceCap(3, 70.0)).report
    monkeypatch.undo()
    assert (len(solved), len(runs)) == (26, 26)
    assert (report.total_revenue_eur, report.hours_active) == (0.9000000000000001, 2)
    for lp, sol in solved[:24:2]:
        assert sol.degenerate, lp.name
        assert sol.objective_value == brute_force_optimum(lp)[0], lp.name
        assert verify_kkt(lp, sol).within(1e-9), lp.name
    cases = {"infinite": None, "finite": {(2, 3): FINITE_LIMIT_MW}}
    check_sweep_equals_runs_alone(monkeypatch, net, series, 3,
                                  [30.0 + 0.5 * k for k in range(81)], cases)


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


def test_sweep_warns_where_revenue_rises_with_the_cap(monkeypatch):
    # revenue never rises with the cap on a valid study, so force one that does
    monkeypatch.setattr(hedging, "_sweep_totals", lambda hours, bus, caps: [1.5, 2.5])
    scenario = generate_scenario(ScenarioSpec(seed=7))
    result = sweep_pi_des(scenario.network, scenario.hours, 3, [60.0, 70.0], {"base": None})
    assert [row.total_revenue_eur for row in result.rows] == [1.5, 2.5]
    assert result.monotonicity_warnings == (
        "scenario 'base': revenue rose from 1.5 to 2.5 as the cap increased to 70.0",)


def test_sweep_rejects_bad_pi_lists():
    scenario = generate_scenario(ScenarioSpec(seed=7))
    with pytest.raises(ValueError, match="non-empty"):
        sweep_pi_des(scenario.network, scenario.hours, 3, [], {"base": None})
    with pytest.raises(ValueError, match="scenarios must be non-empty"):
        sweep_pi_des(scenario.network, scenario.hours, 3, [70.0], {})
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


def check_sweep_equals_runs_alone(monkeypatch, net, series, bus, caps, cases) -> int:
    """Sweep ``caps`` over ``cases`` without a ``run_hedge`` call, check that
    every row's total ``==`` a ``run_hedge`` alone at that cap, and return how
    many programs the sweep solved."""
    calls = count_solves(monkeypatch)
    monkeypatch.setattr(hedging, "run_hedge", None)
    result = sweep_pi_des(net, series, bus, caps, cases)
    monkeypatch.undo()
    assert [(row.scenario, row.pi_des) for row in result.rows] == \
        [(label, cap) for label in cases for cap in caps]
    for row in result.rows:
        overrides = cases[row.scenario]
        case_net = net if overrides is None else apply_line_limits(net, overrides)
        alone = run_hedge(case_net, series, PriceCap(bus, row.pi_des))
        assert row.total_revenue_eur == alone.report.total_revenue_eur, row
    return len(calls)


def test_sweep_solves_pass1_once_per_case(monkeypatch):
    scenario = generate_scenario(ScenarioSpec(seed=7))
    cases = {"infinite": None, "finite": {(2, 3): FINITE_LIMIT_MW}}
    # one 24-hour pass 1 per case; pass 2 in 39 of the 67 (case, cap, hour)
    # triples priced above the cap: the others lie inside the interval of pi of
    # the hour's pass-2 basis at a lower cap
    solved = check_sweep_equals_runs_alone(
        monkeypatch, scenario.network, scenario.hours, 3, [60.0, 70.0, 80.0], cases)
    assert solved == 2 * 24 + 39


def count_calls(monkeypatch, function, *modules) -> list:
    """Count calls of ``function`` made through its name in each of ``modules``."""
    calls = []

    def counting(*args):
        calls.append(args)
        return function(*args)

    for module in modules:
        monkeypatch.setattr(module, function.__name__, counting)
    return calls


def test_study_builds_once_per_solve_and_validates_once_per_hour(monkeypatch):
    scenario = generate_scenario(ScenarioSpec(seed=1))
    net, hours = scenario.network, scenario.hours
    # run_hedge checks each hour's market data once, for both passes
    validated = count_calls(monkeypatch, validate_market_data, opf)
    run_hedge(net, hours, PriceCap(3, 70.0))
    assert len(validated) == 24
    # a sweep checks each hour once per study, builds one program per solve
    # and ranges the programs it solved from those solves' duals: two fresh
    # solves per optimum, and one stacked solve per round and layout that
    # ranges its 39 pass-2 solves (one round of 15 in the infinite case,
    # rounds of 15 and 9 in the finite one, each of one layout)
    solved = count_solves(monkeypatch)
    built = count_calls(monkeypatch, build_opf, opf)
    factored = count_calls(monkeypatch, simplex._solve, simplex)
    validated.clear()
    sweep_pi_des(net, hours, 3, [float(pi) for pi in range(60, 81)],
                 {"infinite": None, "finite": {(2, 3): FINITE_LIMIT_MW}})
    assert len(validated) == 24
    assert len(built) == len(solved) == 87
    assert len(factored) == 2 * 87 + 3


def test_study_looks_up_each_solves_layout_once(monkeypatch):
    # solve_opf_hour's build and readout share their hour's one lookup
    scenario = generate_scenario(ScenarioSpec(seed=1))
    solved = count_solves(monkeypatch)
    looked_up = count_calls(monkeypatch, Grid.layout, Grid)
    sweep_pi_des(scenario.network, scenario.hours, 3, [float(pi) for pi in range(60, 81)],
                 {"infinite": None, "finite": {(2, 3): FINITE_LIMIT_MW}})
    assert len(looked_up) == len(solved) == 87
    solved.clear()
    looked_up.clear()
    run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    assert len(looked_up) == len(solved) == 38


def test_every_opf_solve_goes_through_solve_opf_program(monkeypatch):
    # both passes of a run and of a sweep solve an hour by one path; only the
    # duality chain's capped dual, a hand-built program, goes through lp.solve
    scenario = generate_scenario(ScenarioSpec(seed=1))
    net, hours = scenario.network, scenario.hours
    solved = count_solves(monkeypatch)
    through_opf = count_calls(monkeypatch, opf.solve_opf_program, opf, hedging)
    run_hedge(net, hours, PriceCap(3, 70.0))
    assert len(through_opf) == len(solved) == 38
    solved.clear()
    through_opf.clear()
    sweep_pi_des(net, hours, 3, [float(pi) for pi in range(60, 81)],
                 {"infinite": None, "finite": {(2, 3): FINITE_LIMIT_MW}})
    assert len(through_opf) == len(solved) == 87
    solved.clear()
    through_opf.clear()
    solve_ed_chain(EdInstance(GenOffer(1, 80.0, 0.0, 5.0), LoadUtility(1, 90.0, 0.0, 1.0, 1.0),
                              cap=70.0))
    assert (len(through_opf), len(solved)) == (2, 3)


def test_study_solves_its_programs_without_validating_them(monkeypatch):
    # every value of an hour's program comes from an hour Grid.hours checked,
    # so neither pass re-checks it through LinearProgram.validate
    scenario = generate_scenario(ScenarioSpec(seed=1))
    net, hours = scenario.network, scenario.hours
    validated = count_calls(monkeypatch, LinearProgram.validate, LinearProgram)
    solved = count_solves(monkeypatch)
    run_hedge(net, hours, PriceCap(3, 70.0))
    assert (len(validated), len(solved)) == (0, 38)
    solved.clear()
    sweep_pi_des(net, hours, 3, [float(pi) for pi in range(60, 81)],
                 {"infinite": None, "finite": {(2, 3): FINITE_LIMIT_MW}})
    assert (len(validated), len(solved)) == (0, 87)


@pytest.mark.parametrize("caps", [[float(pi) for pi in range(60, 81)],
                                  [40.0 + 0.5 * k for k in range(161)]],
                         ids=["60-80", "40-120-by-0.5"])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_sweep_equals_runs_alone(monkeypatch, seed, caps):
    # an hour's pass-2 result at one cap holds at the next caps inside its interval
    scenario = generate_scenario(ScenarioSpec(seed=seed))
    cases = {"infinite": None, "finite": {(2, 3): FINITE_LIMIT_MW}}
    check_sweep_equals_runs_alone(monkeypatch, scenario.network, scenario.hours, 3, caps, cases)


@pytest.mark.parametrize("n_buses, seed", [(10, 3), (10, 4), (30, 5), (30, 1)])
def test_mesh_sweep_equals_runs_alone(monkeypatch, n_buses, seed):
    from test_mesh_oracle import seeded_mesh  # it imports this module

    net, hours, cap = seeded_mesh(n_buses, seed)
    caps = [cap.cap_eur_per_mwh * (0.5 + k / 20) for k in range(21)]
    check_sweep_equals_runs_alone(monkeypatch, net, hours, cap.bus, caps, {"mesh": None})


def tie_hours():
    """Bus 3 buys a fixed 2 MW from its own 1 MW offer, priced 60 + h/2 EUR/MWh
    in hour h, and from bus 1 at 85: at a cap equal to the local price,
    flexibility and the local offer tie."""
    return [HourlyMarketData(h, offers=[GenOffer(1, 85.0, 0.0, 5.0),
                                        GenOffer(3, 60.0 + h / 2, 0.0, 1.0)],
                             utilities=[LoadUtility(3, 100.0, 0.0, 2.0, 2.0)])
            for h in range(1, 25)]


def test_sweep_over_ties_equals_runs_alone(monkeypatch):
    # hour 20's offer costs 70: at cap 70 a run alone, from pass 1's basis, ends
    # with 1 MW of flexibility and 1 MW of that offer, though at cap 69.5 the
    # hour buys 2 MW of flexibility
    net, series = build_3bus_network("infinite"), tie_hours()
    alone = run_hedge(net, series, PriceCap(3, 70.0)).report.hours[19]
    assert (alone.p_flexreq_mw, alone.revenue_eur) == (1.0, 15.0)
    cases = {"infinite": None, "finite": {(2, 3): FINITE_LIMIT_MW}}
    # every offer cost, and the caps one ulp either side of it
    near = [math.nextafter(60.0 + h / 2, to) for h in range(1, 25) for to in (0.0, math.inf)]
    for caps in ([69.5, 70.0], sorted([60.0 + 0.5 * k for k in range(41)] + near)):
        check_sweep_equals_runs_alone(monkeypatch, net, series, 3, caps, cases)


def two_layout_day():
    """The ``paper-3bus`` day of seed 7, finite case, without the bus-2 offer
    in hours 9-14: each pass compiles two column layouts, and at 70 EUR/MWh
    both capped ones buy flexibility."""
    scenario = generate_scenario(preset_spec("paper-3bus", case="finite", seed=7))
    return scenario.network, [
        replace(data, offers=[o for o in data.offers if o.bus != 2]) if 9 <= data.hour <= 14
        else data for data in scenario.hours]


def test_two_layout_sweep_equals_runs_alone(monkeypatch):
    # hours 9-14 solve over a layout of their own, so a round ranges the
    # programs of two layouts in one call
    net, series = two_layout_day()
    layouts, cost_ranges = [], simplex.cost_ranges

    def recording(pairs, column):
        layouts.append(len({simplex.program_arrays(prog)[0] for prog, _ in pairs}))
        return cost_ranges(pairs, column)

    monkeypatch.setattr(simplex, "cost_ranges", recording)
    check_sweep_equals_runs_alone(monkeypatch, net, series, 3, [float(pi) for pi in range(60, 81)],
                                  {"infinite": None})
    assert max(layouts) == 2


@pytest.mark.parametrize("case", ["infinite", "finite"])
def test_a_tie_reports_the_least_optimal_flexibility_unflagged(case):
    # at a cap equal to hour h's offer cost, every flexibility in [1, 2] MW is
    # optimal; the run reports 1 MW, its least, and flags no degenerate optimum
    net, series = build_3bus_network(case), tie_hours()
    for data in series:
        cap = PriceCap(3, 60.0 + data.hour / 2)
        run = run_hedge(net, series, cap)
        reported, hedged = run.report.hours[data.hour - 1], run.hedged[data.hour - 1]
        assert (reported.p_flexreq_mw, reported.revenue_eur) == (1.0, 85.0 - cap.cap_eur_per_mwh)
        assert not hedged.degenerate
        prog = build_opf(valid_hour(net, data, (cap,)))
        prog.columns["pflex_3"].lower = prog.columns["pflex_3"].upper = 2.0
        assert solve(prog).objective_value == hedged.objective_eur


def test_each_study_solves_its_own_pass1(monkeypatch):
    scenario = generate_scenario(ScenarioSpec(seed=7))
    calls = count_solves(monkeypatch)
    # 24 pass-1 solves and 14 pass-2 solves, in the hours priced above 70
    run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    assert len(calls) == 38
    run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    assert len(calls) == 76
    # a run after a sweep solves its own pass 1
    sweep_pi_des(scenario.network, scenario.hours, 3, [70.0], {"base": None})
    solved = len(calls)
    run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    assert len(calls) == solved + 38


def test_caps_are_validated_before_any_solve(monkeypatch):
    scenario = generate_scenario(ScenarioSpec(seed=7))
    net, hours = scenario.network, scenario.hours
    calls = count_solves(monkeypatch)
    with pytest.raises(ValueError, match="non-finite"):
        run_hedge(net, hours, PriceCap(3, math.inf))
    with pytest.raises(ValueError, match="unknown bus 9"):
        run_hedge(net, hours, PriceCap(9, 70.0))
    with pytest.raises(ValueError, match="non-finite"):
        sweep_pi_des(net, hours, 3, [70.0, math.inf], {"base": None})
    assert calls == []


def test_run_lists_every_malformed_hour(monkeypatch):
    scenario = generate_scenario(ScenarioSpec(seed=7))
    inverted = [replace(data, utilities=[LoadUtility(3, 60.0, 0.0, 2.0, 1.0)])
                if data.hour in (3, 9) else data for data in scenario.hours]
    calls = count_solves(monkeypatch)
    with pytest.raises(ValueError) as error:
        run_hedge(scenario.network, inverted, PriceCap(3, 70.0))
    assert str(error.value) == "; ".join(
        f"hour {h}: load bounds at bus 3 must satisfy 0 <= min <= max, got [2.0, 1.0]"
        for h in (3, 9))
    assert calls == []


@pytest.mark.parametrize("overrides, problem", [
    ({(2, 3): -1.0}, "line 2-3: flow_limit_mw must be > 0, got -1.0"),
    ({(4, 5): 1.0}, "overrides reference unknown lines: [(4, 5)]"),
], ids=["bad-limit", "unknown-line"])
def test_sweep_rejects_a_bad_scenario_before_any_solve(monkeypatch, overrides, problem):
    scenario = generate_scenario(ScenarioSpec(seed=7))
    calls = count_solves(monkeypatch)
    # the good scenario alone takes 38 solves; the bad one is found before them
    with pytest.raises(ValueError) as error:
        sweep_pi_des(scenario.network, scenario.hours, 3, [70.0],
                     {"infinite": None, "bad": overrides})
    assert str(error.value) == f"scenario 'bad': {problem}"
    assert calls == []


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
    reader = csv.DictReader(buf)
    rows = list(reader)
    assert reader.fieldnames == HEDGE_CSV_COLUMNS
    assert len(rows) == 24

    def number(text):
        return None if text == "" else float(text)

    for row, hour in zip(rows, run.report.hours):
        assert int(row["hour"]) == hour.hour
        assert number(row["lambda_unconstrained_eur_mwh"]) == hour.lambda_unconstrained
        assert float(row["p_flexreq_mw"]) == hour.p_flexreq_mw
        assert number(row["revenue_eur"]) == hour.revenue_eur


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
