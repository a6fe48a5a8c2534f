"""Hourly DC-OPF: prices, flows, congestion duals, series handling, CSV."""

import csv
import io
import math
import random

import numpy as np
import pytest

from flexhedge import opf, simplex
from flexhedge.economic_dispatch import EdInstance, solve_ed_chain
from flexhedge.hedging import run_hedge, sweep_pi_des
from flexhedge.lp import LinearProgram, solve, to_lp_format, verify_kkt
from flexhedge.model import (
    Bus,
    GenOffer,
    HourlyMarketData,
    Line,
    LoadUtility,
    Network,
    PriceCap,
    validate_network,
)
from flexhedge.opf import (
    DISPATCH_CSV_COLUMNS,
    Grid,
    build_opf,
    solve_opf_hour,
    solve_opf_series,
    write_dispatch_csv,
)
from flexhedge.scenario import (LINE_LIMIT_CASES, ScenarioSpec, build_3bus_network,
                                generate_scenario)

from oracles import brute_force_optimum, oracle_row_dual, reference_opf, valid_hour

INF = math.inf


def triangle(limit23=1.0):
    return Network(
        buses=[Bus(1, is_slack=True), Bus(2), Bus(3, price_constrained=True)],
        lines=[Line(1, 2, 0.1, 1.0), Line(1, 3, 0.1, 1.0), Line(2, 3, 0.1, limit23)],
    )


def hour_data(hour=1, a_trans=77.0, a_dist=29.0, dist_cap=0.85, load=1.0,
              load_min=None, b_load=60.0):
    load_min = load if load_min is None else load_min
    return HourlyMarketData(
        hour,
        offers=[GenOffer(1, a_trans, 0.0, 5.0), GenOffer(2, a_dist, 0.0, dist_cap)],
        utilities=[LoadUtility(3, b_load, 0.0, load_min, load)],
    )


# ---------------------------------------------------------------------------
# Program shape

def test_row_inventory_finite_case():
    prog = build_opf(valid_hour(triangle(0.6), hour_data()))
    assert list(prog.rows) == [
        "balance_1", "balance_2", "balance_3", "angle_ref",
        "flow_hi_1_2", "flow_lo_1_2", "flow_hi_1_3", "flow_lo_1_3",
        "flow_hi_2_3", "flow_lo_2_3",
    ]


def test_unlimited_lines_produce_no_flow_rows():
    net = Network(buses=triangle().buses,
                  lines=[Line(1, 2, 0.1), Line(1, 3, 0.1), Line(2, 3, 0.1)])
    prog = build_opf(valid_hour(net, hour_data()))
    assert list(prog.rows) == ["balance_1", "balance_2", "balance_3", "angle_ref"]


def test_flex_column_only_in_cap_bus_balance():
    inp = valid_hour(triangle(), hour_data(), caps=(PriceCap(3, 70.0),))
    prog = build_opf(inp)
    assert "pflex_3" in prog.columns
    rows_with_flex = [r.name for r in prog.rows.values() if "pflex_3" in r.coeffs]
    assert rows_with_flex == ["balance_3"]
    assert prog.columns["pflex_3"].objective == -70.0


def test_cap_on_unconstrained_bus_rejected():
    with pytest.raises(ValueError, match="not price constrained"):
        valid_hour(triangle(), hour_data(), caps=(PriceCap(2, 70.0),))


def test_two_caps_at_one_bus_rejected():
    caps = (PriceCap(3, 70.0), PriceCap(2, 60.0), PriceCap(3, 80.0))
    problem = "price cap at bus 2 which is not price constrained; more than one price cap at bus 3"
    with pytest.raises(ValueError) as error:
        Grid(triangle()).hours([hour_data(1), hour_data(2)], caps)
    assert str(error.value) == problem
    with pytest.raises(ValueError) as error:
        valid_hour(triangle(), hour_data(), caps)
    assert str(error.value) == problem


# ---------------------------------------------------------------------------
# Hour solves

def test_uniform_price_marginal_import():
    # ample lines, cheap distribution exhausted, import sets one price everywhere
    res = solve_opf_hour(valid_hour(triangle(), hour_data()))
    prices = list(res.lmp_eur_mwh.values())
    assert max(prices) - min(prices) <= 1e-6
    assert prices[0] == pytest.approx(77.0, abs=1e-6)
    assert res.p_g_mw[2] == pytest.approx(0.85, abs=1e-9)
    assert res.p_g_mw[1] == pytest.approx(0.15, abs=1e-9)


def test_congestion_splits_prices():
    res = solve_opf_hour(valid_hour(triangle(0.6), hour_data(load=1.2)))
    assert res.flow_mw[(2, 3)] == pytest.approx(0.6, abs=1e-9)
    assert res.congestion_dual_eur_mwh[(2, 3)] > 1e-6
    # marginal MWh at the load bus costs two imports minus one backed-off unit
    assert res.lmp_eur_mwh[3] == pytest.approx(2 * 77.0 - 29.0, abs=1e-6)
    assert res.lmp_eur_mwh[2] == pytest.approx(29.0, abs=1e-6)
    assert res.lmp_eur_mwh[1] == pytest.approx(77.0, abs=1e-6)
    assert res.lmp_eur_mwh[3] - res.lmp_eur_mwh[2] > 1.0


def test_zero_load_hour():
    data = HourlyMarketData(1, offers=[GenOffer(1, 77.0, 2.5, 5.0)], utilities=[])
    res = solve_opf_hour(valid_hour(triangle(), data))
    assert all(v == pytest.approx(0.0, abs=1e-9) for v in res.p_g_mw.values())
    assert all(v == pytest.approx(0.0, abs=1e-9) for v in res.flow_mw.values())
    assert res.objective_eur == pytest.approx(-2.5)  # constant cost only


def test_slack_angle_is_zero():
    res = solve_opf_hour(valid_hour(triangle(0.6), hour_data(load=1.2)))
    assert res.theta_rad[1] == pytest.approx(0.0, abs=1e-12)


def test_flows_respect_limits():
    res = solve_opf_hour(valid_hour(triangle(0.6), hour_data(load=1.2)))
    for line in triangle(0.6).lines:
        assert abs(res.flow_mw[line.key]) <= line.flow_limit_mw + 1e-7


def test_flow_conservation():
    res = solve_opf_hour(valid_hour(triangle(0.6), hour_data(load=1.2)))
    total = sum(res.p_g_mw.values()) - sum(res.p_l_mw.values())
    assert abs(total) <= 24 * 1e-7


def test_flex_run_caps_price_and_balances():
    inp = valid_hour(triangle(0.6), hour_data(hour=17, a_trans=77.07, load=1.2),
                       caps=(PriceCap(3, 70.0),))
    res = solve_opf_hour(inp)
    assert res.lmp_eur_mwh[3] <= 70.0 + 1e-6
    assert res.p_flexreq_mw[3] == pytest.approx(0.35, abs=1e-9)
    total = sum(res.p_g_mw.values()) - sum(res.p_l_mw.values()) + res.p_flexreq_mw[3]
    assert abs(total) <= 24 * 1e-7


def test_single_bus_network_equals_ed_chain():
    net = Network(buses=[Bus(1, is_slack=True, price_constrained=True)], lines=[])
    data = HourlyMarketData(1, offers=[GenOffer(1, 80.0, 0.0, INF)],
                            utilities=[LoadUtility(1, 90.0, 0.0, 1.0, 1.0)])
    inp = valid_hour(net, data, caps=(PriceCap(1, 70.0),))
    res = solve_opf_hour(inp)

    chain = solve_ed_chain(EdInstance(
        offer=GenOffer(1, 80.0, 0.0, INF),
        utility=LoadUtility(1, 90.0, 0.0, 1.0, 1.0),
        cap=70.0,
    ))
    assert res.objective_eur == pytest.approx(chain.objective_with_flex, abs=1e-9)
    assert res.lmp_eur_mwh[1] == pytest.approx(chain.result.lmp_eur_mwh, abs=1e-9)
    assert res.p_flexreq_mw[1] == pytest.approx(chain.result.p_flexreq_mw, abs=1e-9)


def test_congestion_signature_no_dual_means_uniform():
    for load in (0.4, 0.7, 1.0, 1.2):
        res = solve_opf_hour(valid_hour(triangle(0.6), hour_data(load=load)))
        if all(d <= 1e-9 for d in res.congestion_dual_eur_mwh.values()):
            prices = list(res.lmp_eur_mwh.values())
            assert max(prices) - min(prices) <= 1e-6, f"load {load}"


def test_infeasible_hour_names_hour():
    assert solve_opf_hour(valid_hour(triangle(0.1), hour_data(hour=7, load=1.0))) is None


def test_multiple_cap_buses_supported():
    # tight corridors into bus 3 force its own flexibility to run even though
    # the bus-2 flexibility is cheaper
    net = Network(
        buses=[Bus(1, is_slack=True), Bus(2, price_constrained=True),
               Bus(3, price_constrained=True)],
        lines=[Line(1, 2, 0.1, 1.0), Line(1, 3, 0.1, 0.1), Line(2, 3, 0.1, 0.1)],
    )
    data = HourlyMarketData(
        1,
        offers=[GenOffer(1, 90.0, 0.0, 5.0)],
        utilities=[LoadUtility(2, 95.0, 0.0, 0.5, 0.5), LoadUtility(3, 95.0, 0.0, 0.5, 0.5)],
    )
    inp = valid_hour(net, data, caps=(PriceCap(2, 60.0), PriceCap(3, 70.0)))
    res = solve_opf_hour(inp)
    assert res.lmp_eur_mwh[2] <= 60.0 + 1e-6
    assert res.lmp_eur_mwh[3] == pytest.approx(70.0, abs=1e-6)  # own flex marginal
    assert res.p_flexreq_mw[2] > 1e-9
    assert res.p_flexreq_mw[3] > 1e-9


# ---------------------------------------------------------------------------
# Series

def test_series_identical_hours_identical_results():
    series = [hour_data(hour=h) for h in range(1, 25)]
    results = solve_opf_series(triangle(), series)
    assert all(r is not None for r in results)
    first = results[0]
    for res in results[1:]:
        assert res.lmp_eur_mwh == first.lmp_eur_mwh
        assert res.p_g_mw == first.p_g_mw
        assert res.objective_eur == first.objective_eur


def test_series_order_independent():
    series = [hour_data(hour=h, load=0.5 + h / 50.0) for h in range(1, 25)]
    forward = solve_opf_series(triangle(0.6), series)
    shuffled_idx = list(range(24))
    random.Random(3).shuffle(shuffled_idx)
    backward = solve_opf_series(triangle(0.6), [series[i] for i in shuffled_idx])
    for pos, idx in enumerate(shuffled_idx):
        assert backward[pos] == forward[idx]


def test_series_reports_infeasible_hours_individually():
    series = [hour_data(hour=1, load=0.3, load_min=0.3),
              hour_data(hour=2, load=5.0, load_min=5.0),
              hour_data(hour=3, load=0.4, load_min=0.4)]
    results = solve_opf_series(triangle(0.6), series)
    assert results[0] is not None
    assert results[1] is None
    assert results[2] is not None


def test_series_may_be_an_iterator():
    scenario = generate_scenario(ScenarioSpec(seed=1))
    net, hours = scenario.network, scenario.hours
    assert len(solve_opf_series(net, iter(hours))) == 24
    assert len(Grid(net).hours(iter(hours))) == 24
    bad = [*hours[:5], hour_data(hour=6, load=0.5, load_min=1.0), *hours[6:]]
    with pytest.raises(ValueError, match="hour 6"):
        Grid(net).hours(iter(bad))
    with pytest.raises(ValueError, match="hour 6"):
        solve_opf_series(net, iter(bad))


# ---------------------------------------------------------------------------
# Oracle equivalence on random small networks

def random_opf_input(rng: random.Random) -> opf.ValidHour:
    n = rng.randint(1, 3)
    buses = [Bus(i + 1, is_slack=(i == 0)) for i in range(n)]
    lines = []
    for j in range(2, n + 1):  # spanning tree to bus 1
        limit = INF if rng.random() < 0.5 else rng.uniform(0.3, 2.0)
        lines.append(Line(j - 1, j, rng.uniform(0.05, 0.5), limit))
    if n == 3 and rng.random() < 0.6:
        limit = INF if rng.random() < 0.5 else rng.uniform(0.3, 2.0)
        lines.append(Line(1, 3, rng.uniform(0.05, 0.5), limit))
    offers = []
    utilities = []
    for b in range(1, n + 1):
        if rng.random() < 0.8:
            offers.append(GenOffer(b, rng.uniform(10.0, 100.0), 0.0,
                                   rng.uniform(0.2, 2.0)))
        if rng.random() < 0.8:
            p_max = rng.uniform(0.0, 1.5)
            utilities.append(LoadUtility(b, rng.uniform(10.0, 100.0), 0.0, 0.0, p_max))
    if not offers:
        offers.append(GenOffer(1, rng.uniform(10.0, 100.0), 0.0, rng.uniform(0.2, 2.0)))
    data = HourlyMarketData(1, offers=offers, utilities=utilities)
    return valid_hour(Network(buses, lines), data)


def test_solver_matches_enumeration_oracle_on_random_networks():
    lambda_compared = 0
    for case in range(30):
        rng = random.Random(7000 + case)
        inp = random_opf_input(rng)
        res = solve_opf_hour(inp)
        oracle_obj, _ = brute_force_optimum(build_opf(inp))
        assert res.objective_eur == pytest.approx(oracle_obj, abs=1e-6), f"case {case}"

        if res.degenerate:
            continue
        for bus in inp.grid.net.buses:
            fd_dual = oracle_row_dual(build_opf(inp), f"balance_{bus.id}")
            assert res.lmp_eur_mwh[bus.id] == pytest.approx(-fd_dual, abs=1e-6), \
                f"case {case}, bus {bus.id}"
            lambda_compared += 1
    assert lambda_compared >= 10, f"too few non-degenerate cases: {lambda_compared}"


def test_opf_solves_pass_kkt():
    for case in range(20):
        rng = random.Random(8000 + case)
        inp = random_opf_input(rng)
        prog = build_opf(inp)
        sol = solve(prog)
        assert sol.status == "optimal"
        assert verify_kkt(prog, sol).within(1e-6), f"case {case}"


# ---------------------------------------------------------------------------
# CSV export

def test_dispatch_csv_round_trip():
    series = [hour_data(hour=1, load=1.2), hour_data(hour=2, load=0.5)]
    results = solve_opf_series(triangle(0.6), series)
    buf = io.StringIO()
    write_dispatch_csv(results, buf)
    buf.seek(0)
    reader = csv.DictReader(buf)
    rows = list(reader)
    assert reader.fieldnames == DISPATCH_CSV_COLUMNS
    buses = [row for row in rows if row["kind"] == "bus"]
    lines = [row for row in rows if row["kind"] == "line"]

    assert len(buses) == 6   # 2 hours x 3 buses
    assert len(lines) == 6   # 2 hours x 3 lines
    assert len(rows) == 12
    first = buses[0]
    assert (int(first["hour"]), int(first["bus"])) == (1, 1)
    assert float(first["lmp_eur_mwh"]) == results[0].lmp_eur_mwh[1]
    line_row = lines[2]
    assert (int(line_row["line_from"]), int(line_row["line_to"])) == (2, 3)
    assert float(line_row["flow_mw"]) == results[0].flow_mw[(2, 3)]
    assert float(line_row["congestion_dual_eur_mwh"]) == \
        results[0].congestion_dual_eur_mwh[(2, 3)]


def test_dispatch_csv_skips_infeasible_hours():
    series = [hour_data(hour=1, load=5.0, load_min=5.0), hour_data(hour=2, load=0.5)]
    results = solve_opf_series(triangle(0.6), series)
    buf = io.StringIO()
    write_dispatch_csv(results, buf)
    buf.seek(0)
    assert {row["hour"] for row in csv.DictReader(buf)} == {"2"}


def grid_programs(net, series, caps=()):
    """Each hour's program built over one ``Grid``, as a study builds them."""
    return [build_opf(hour) for hour in Grid(net).hours(series, caps)]


def dense_form(prog):
    """The arrays a solve of ``prog`` works on: A, b, bounds and costs."""
    st = simplex._State(prog, simplex.program_arrays(prog))
    return [a.tobytes() for a in (st.A, st.b, st.lo, st.up, st.c_ext)]


def check_blocks(progs):
    """Each program's shared layout is, bit for bit and name for name, what
    ``simplex.Layout`` makes of its own rows and columns, and the solve works
    on the same arrays as without it."""
    for prog in progs:
        layout = prog.arrays[0]
        assert simplex._State(prog, simplex.program_arrays(prog)).A is layout.A
        carried = dense_form(prog)
        prog.rows  # from here on a solve compiles the program's dicts
        own = simplex.program_arrays(prog)[0]
        assert layout.A.tobytes() == own.A.tobytes()
        assert (layout.names, layout.index) == (own.names, own.index)
        assert dense_form(prog) == carried


def layout_cases():
    from test_mesh_oracle import seeded_mesh  # it imports test_hedging

    cases = {}
    for case in ("infinite", "finite"):
        scenario = generate_scenario(ScenarioSpec(seed=1, line_limit_case=case))
        for caps in ((), (PriceCap(3, 70.0),)):
            cases[f"paper-3bus-{case}-{len(caps)}cap"] = (scenario.network, scenario.hours, caps)
    for n_buses in (10, 30):
        net, hours, cap = seeded_mesh(n_buses, 1)
        cases[f"mesh{n_buses}"] = (net, hours, (cap,))
    # no offers, so no crash start; then offers and a utility at other buses
    cases["layouts"] = (triangle(0.6), [
        HourlyMarketData(1, utilities=[LoadUtility(3, 60.0, 0.0, 0.0, 1.0)]),
        hour_data(hour=2),
        HourlyMarketData(3, offers=[GenOffer(3, 20.0, 0.0, 1.0)],
                         utilities=[LoadUtility(2, 60.0, 0.0, 0.0, 1.0)])], ())
    return cases


@pytest.mark.parametrize("name", list(layout_cases()))
def test_block_equals_each_programs_own_densify(name):
    net, series, caps = layout_cases()[name]
    progs = grid_programs(net, series, caps)
    layouts = [prog.arrays[0] for prog in progs]
    check_blocks(progs)
    if name == "layouts":  # three column layouts, three blocks
        assert len({id(layout) for layout in layouts}) == 3
        assert layouts[0].crash is None
        # line 2-3 carries two thirds of bus 3's export to bus 2 and binds at 0.6
        loads = [solve_opf_hour(valid_hour(net, data)).p_l_mw for data in series]
        assert loads == [{3: 0.0}, {3: 1.0}, {2: pytest.approx(0.9)}]
    else:  # every hour of a series shares its layout's block
        assert all(layout is layouts[0] for layout in layouts)


def test_layout_crash_basis_is_angles_an_import_and_limit_slacks():
    # every angle and the slack bus's import column (else the first offer's)
    # span the balance and reference rows; each limit row keeps its slack
    net, series, _ = layout_cases()["layouts"]
    grid = Grid(net)
    angles = ("theta_1", "theta_2", "theta_3")
    limits = tuple(f"slack:flow_{side}_{line}" for line in ("1_2", "1_3", "2_3")
                   for side in ("hi", "lo"))
    assert [grid.layout(hour).crash for hour in grid.hours(series)] == [
        None,  # no offers
        (angles + ("pg_1",) + limits, ()),  # offers at the slack bus 1 and at bus 2
        (angles + ("pg_3",) + limits, ()),  # one offer, at bus 3
    ]


def program_parts(prog):
    """A program's parts in order, floats by ``repr``: sense and name, each
    column with its bounds and cost, each row with its coefficients, the
    constant, and its LP text."""
    rows = [(row.name, list(row.coeffs.items()), row.relation, row.rhs)
            for row in prog.rows.values()]
    return repr((prog.sense, prog.name, list(prog.columns.values()), rows,
                 prog.constant)), to_lp_format(prog)


@pytest.mark.parametrize("name", ["paper-3bus-1-infinite", "paper-3bus-1-finite",
                                  "paper-3bus-7-infinite", "paper-3bus-7-finite",
                                  "mesh10", "mesh30", "layouts"])
def test_build_opf_matches_the_reference_builder(name):
    # one grid builds every hour with and without the cap, interleaved, so a
    # layout's compiled rows would show in the other's programs
    if name.startswith("paper-3bus"):
        _, seed, case = name.rsplit("-", 2)
        scenario = generate_scenario(ScenarioSpec(seed=int(seed), line_limit_case=case))
        net, series, caps = scenario.network, scenario.hours, (PriceCap(3, 70.0),)
    elif name == "layouts":
        net, series, _ = layout_cases()[name]
        caps = ()
    else:
        from test_mesh_oracle import seeded_mesh  # it imports test_hedging

        net, series, cap = seeded_mesh(int(name[4:]), 1)
        caps = (cap,)
    grid = Grid(net)
    for pair in zip(grid.hours(series), grid.hours(series, caps)):
        for hour in pair:
            built, reference = build_opf(hour), reference_opf(hour)
            # a solve reads the built arrays as they are, then the dicts read from them
            arrays = dense_form(built)
            assert built.arrays is not None
            assert arrays == dense_form(reference), (hour.data.hour, hour.caps)
            assert program_parts(built) == program_parts(reference), (hour.data.hour, hour.caps)
            assert built.arrays is None
            assert dense_form(built) == arrays, (hour.data.hour, hour.caps)


def test_built_programs_stay_independent():
    scenario = generate_scenario(ScenarioSpec(seed=7, line_limit_case="finite"))
    hours = Grid(scenario.network).hours(scenario.hours, (PriceCap(3, 70.0),))
    progs = [build_opf(hour) for hour in hours]
    edited, other, tight, unread = progs[16], progs[17], progs[18], progs[19]
    layout = edited.arrays[0]
    assert layout is other.arrays[0] is tight.arrays[0] is unread.arrays[0]
    text, block, solved = to_lp_format(other), layout.A.tobytes(), solve(other)
    unread_solved, before = simplex.solve_program(unread), solve(tight)
    # an edit in place after the dicts are read reaches the next solve, as
    # in a program built the plain way; no sibling sees it
    reference = reference_opf(hours[18])
    for prog in (tight, reference):
        prog.rows["flow_hi_2_3"].rhs = 0.25
        prog.columns["pg_2"].upper = 0.2
    assert tight.arrays is None
    sol = solve(tight)
    assert sol.primal != before.primal and sol.primal["pg_2"] == pytest.approx(0.2)
    assert sol.primal == pytest.approx(solve(reference).primal)
    assert verify_kkt(tight, sol).within(1e-6)
    assert to_lp_format(other) == text and solve(other) == solved
    assert simplex.solve_program(unread) == unread_solved and unread.arrays is not None
    assert to_lp_format(build_opf(hours[18])) != to_lp_format(tight)
    # the perturbation oracles.oracle_row_dual makes, then a row and a column
    edited.rows["flow_hi_2_3"].rhs += 1e-5
    edited.add_column("pg_extra", 0.0, 0.5, objective=-20.0)
    edited.add_row("extra_at_3", {"pg_extra": 1.0, "pflex_3": 1.0}, "<=", 0.4)
    edited.rows["balance_3"].coeffs["pg_extra"] = 1.0
    assert to_lp_format(other) == text
    assert layout.A.tobytes() == block
    assert solve(other) == solved
    sol = solve(edited)
    assert sol.status == "optimal" and sol.primal["pg_extra"] == pytest.approx(0.4)
    assert verify_kkt(edited, sol).within(1e-6)
    rebuilt = simplex.solution_from_basis(edited, sol.basis, sol.nonbasic_at_upper)
    assert rebuilt.primal == sol.primal
    assert rebuilt.duals == sol.duals


def test_a_coefficient_edited_in_place_reaches_the_next_solve():
    # a solve compiles a read program's dicts afresh, so an edited row never
    # meets the matrix of the layout the program was built over
    scenario = generate_scenario(ScenarioSpec(seed=7, line_limit_case="finite"))
    hour = Grid(scenario.network).hours(scenario.hours)[16]
    prog, reference = build_opf(hour), reference_opf(hour)
    for edited in (prog, reference):
        edited.rows["flow_hi_2_3"].coeffs["theta_2"] *= 0.5
    sol = solve(prog)
    assert sol.objective_value == solve(reference).objective_value
    assert verify_kkt(prog, sol).within(1e-6)


def test_network_validated_once_per_run(monkeypatch):
    calls = []

    def counting_validate_network(net):
        calls.append(net)
        return validate_network(net)

    scenario = generate_scenario(ScenarioSpec(seed=7, line_limit_case="finite"))
    monkeypatch.setattr(opf, "validate_network", counting_validate_network)
    cap = PriceCap(3, 70.0)
    first = run_hedge(scenario.network, scenario.hours, cap)
    assert calls == [scenario.network]
    # each run compiles its own grid: nothing is kept between runs
    assert run_hedge(scenario.network, scenario.hours, cap) == first
    assert len(calls) == 2


def test_crash_basis_inverted_once_per_layout_per_run(monkeypatch):
    # and no solve inverts a matrix its layout inverted before: a start basis
    # repeated across hours or sweep rounds takes its layout's stored B^-1
    scenario = generate_scenario(ScenarioSpec(seed=7, line_limit_case="finite"))
    inverted, solved = [], []
    inverse, solve_program = simplex._inverse, simplex.solve_program
    monkeypatch.setattr(simplex, "_inverse", lambda B: inverted.append(B.tobytes()) or inverse(B))

    def recording(prog):
        before = len(inverted)
        sol = solve_program(prog)
        solved.append((prog, inverted[before:]))  # the matrices this solve inverted
        return sol

    def inverted_again():
        seen = set()
        for prog, made in solved:
            for matrix in made:
                assert (prog.arrays[0], matrix) not in seen, prog.name
                seen.add((prog.arrays[0], matrix))
        return len(seen)

    monkeypatch.setattr(simplex, "solve_program", recording)
    cap = PriceCap(3, 70.0)
    first = run_hedge(scenario.network, scenario.hours, cap)
    assert inverted_again() == 3
    pass1, pass2 = solved[:24], solved[24:]
    layout = pass1[0][0].arrays[0]
    crash = layout.A[:, [layout.index[name] for name in layout.crash[0]]].tobytes()
    assert [made for _, made in pass1] == [[crash]] + [[]] * 23
    assert all(prog.arrays[0] is layout and prog.start == layout.crash for prog, _ in pass1)
    assert pass2 and all(prog.start != prog.arrays[0].crash for prog, _ in pass2)  # warm starts
    # each run compiles its own grid: nothing is kept between runs
    solved.clear()
    assert run_hedge(scenario.network, scenario.hours, cap) == first
    assert [made for _, made in solved[:24]] == [[crash]] + [[]] * 23
    # a sweep of 161 caps from 40 to 120: 7 inversions of 3 distinct matrices
    solved.clear()
    preset = generate_scenario(ScenarioSpec(seed=7))  # a sweep reads the infinite case
    sweep_pi_des(preset.network, preset.hours, 3, [40 + k / 2 for k in range(161)],
                 LINE_LIMIT_CASES)
    assert inverted_again() == 7


def test_crash_inverse_serves_every_start_on_the_crash_basis(monkeypatch):
    # B^-1 depends on the basis alone: a pass-2 start on the crash basis with
    # columns resting at their upper bound uses its layout's stored inverse,
    # so the crash matrix is inverted once per layout, pass 1's and pass 2's
    scenario = generate_scenario(ScenarioSpec(seed=7, line_limit_case="finite"))
    inverted = []
    inverse = simplex._inverse
    monkeypatch.setattr(simplex, "_inverse", lambda B: inverted.append(B.tobytes()) or inverse(B))
    run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    layout = build_opf(Grid(scenario.network).hours(scenario.hours)[0]).arrays[0]
    crash = layout.A[:, [layout.index[name] for name in layout.crash[0]]].tobytes()
    assert inverted.count(crash) == 2


@pytest.mark.parametrize("n_buses", [10, 30])
def test_a_crash_started_program_given_another_start_solves_as_a_fresh_one(n_buses):
    # a layout's B^-1 of a basis serves only starts on that basis: a program
    # moved from the crash basis to its hour's optimal basis takes that one's
    from test_mesh_oracle import seeded_mesh  # it imports test_hedging

    net, hours, _ = seeded_mesh(n_buses, 1)
    grid = Grid(net)
    for hour in grid.hours(hours):
        prog = build_opf(hour)
        prog.start = prog.arrays[0].crash
        crashed = simplex.solve_program(prog)
        prog.start = (crashed.basis, crashed.nonbasic_at_upper)
        fresh = build_opf(hour)
        fresh.start = prog.start
        sol = simplex.solve_program(prog)
        assert sol == solve(fresh), hour.data.hour  # its dicts read: that start alone
        assert verify_kkt(prog, sol).within(1e-6), hour.data.hour


def tight_cases():
    """``paper-3bus`` seed 7 and ``seeded_mesh(n, 1)`` for n = 10 and 30, every
    line limited to 0.05 MW: each hour's crash basis then sends more than that
    down some line, so its start swaps limit slacks for artificials."""
    from test_mesh_oracle import seeded_mesh  # it imports test_hedging

    scenario = generate_scenario(ScenarioSpec(seed=7, line_limit_case="finite"))
    cases = {"paper-3bus": (scenario.network, scenario.hours, PriceCap(3, 70.0))}
    for n_buses in (10, 30):
        cases[f"mesh{n_buses}"] = seeded_mesh(n_buses, 1)
    return {name: (Network(net.buses, [Line(line.from_bus, line.to_bus, line.reactance_pu, 0.05)
                                       for line in net.lines]), hours, cap)
            for name, (net, hours, cap) in cases.items()}


@pytest.mark.parametrize("name", list(tight_cases()))
def test_artificial_of_sign_minus_one_negates_its_row_of_the_inverse(monkeypatch, name):
    # an artificial of sign -1 in a flow_hi slack's place negates that row of
    # the layout's copy of the crash B^-1; bit for bit, that is the new
    # basis's inverse, and the layout's stored B^-1 stays as it was inverted
    net, hours, cap = tight_cases()[name]
    negated = []
    start = simplex._start

    def checking(st):
        crash = st.basis == crash_basis(st.layout)
        st = start(st)
        if st is not None and (st.A[:, st.artificial_from:] < 0).any():
            assert np.array_equal(st.Binv, np.linalg.inv(st.A[:, st.basis]))
            negated.append(crash)
        return st

    def crash_basis(layout):
        return [layout.index[name] for name in layout.crash[0]]

    monkeypatch.setattr(simplex, "_start", checking)
    grid = Grid(net)
    hours, solved = grid.hours(hours, (cap,)), []
    for hour in hours:
        prog = build_opf(hour)
        prog.start = grid.layout(hour).crash
        solved.append(simplex.solve_program(prog))
        assert solved[-1].status == "optimal"
    assert negated.count(True) == 24
    for layout in {grid.layout(hour) for hour in hours}:
        basis = crash_basis(layout)
        stored = layout._inverses[tuple(basis)]
        assert stored.tobytes() == np.linalg.inv(layout.A[:, basis]).tobytes()
    for hour, first in zip(hours, solved):
        prog = build_opf(hour)
        prog.start = grid.layout(hour).crash
        assert simplex.solve_program(prog) == first, hour.data.hour


def test_mesh_program_text_is_pinned():
    # bus 3 touches three lines, as the to-end of 2-3 and the from-end of 3-1
    # and 3-4, so its angle terms pin accumulation and insertion order.
    net = Network(
        buses=[Bus(1, is_slack=True), Bus(2), Bus(3), Bus(4, price_constrained=True)],
        lines=[Line(1, 2, 0.1), Line(2, 3, 0.3, 0.8), Line(3, 1, 0.7), Line(3, 4, 0.6)],
    )
    data = HourlyMarketData(
        5, offers=[GenOffer(1, 70.0, 2.0, 4.0), GenOffer(3, 30.0, 0.0, 0.5)],
        utilities=[LoadUtility(4, 90.0, 1.0, 0.5, 1.5), LoadUtility(2, 80.0, 0.0, 0.2, 0.4)])
    prog = build_opf(valid_hour(net, data, caps=(PriceCap(4, 65.0),)))
    assert to_lp_format(prog) == """\\ opf_h5
Maximize
 obj: - 70 pg_1 - 30 pg_3 + 90 pl_4 + 80 pl_2 - 65 pflex_4
Subject To
 balance_1: 1 pg_1 - 11.4285714286 theta_1 + 10 theta_2 + 1.42857142857 theta_3 = 0
 balance_2: - 1 pl_2 - 13.3333333333 theta_2 + 10 theta_1 + 3.33333333333 theta_3 = 0
 balance_3: 1 pg_3 - 6.42857142857 theta_3 + 3.33333333333 theta_2 + 1.42857142857 theta_1 + 1.66666666667 theta_4 = 0
 balance_4: - 1 pl_4 + 1 pflex_4 - 1.66666666667 theta_4 + 1.66666666667 theta_3 = 0
 angle_ref: 1 theta_1 = 0
 flow_hi_2_3: 3.33333333333 theta_2 - 3.33333333333 theta_3 <= 0.8
 flow_lo_2_3: 3.33333333333 theta_2 - 3.33333333333 theta_3 >= -0.8
Bounds
 theta_1 free
 theta_2 free
 theta_3 free
 theta_4 free
 0 <= pg_1 <= 4
 0 <= pg_3 <= 0.5
 0.5 <= pl_4 <= 1.5
 0.2 <= pl_2 <= 0.4
 0 <= pflex_4 <= +inf
End
"""
    b23, b31, b34 = 1.0 / 0.3, 1.0 / 0.7, 1.0 / 0.6
    assert list(prog.rows["balance_3"].coeffs.items()) == [
        ("pg_3", 1.0), ("theta_3", 0.0 - b23 - b31 - b34),
        ("theta_2", b23), ("theta_1", b31), ("theta_4", b34)]
    assert prog.constant == 1.0 - 2.0


def test_built_hour_validates_clean_once_read_and_names_an_added_bad_row():
    # validate reads a built hour's dicts, which find nothing in an hour that
    # Grid.hours accepted; a bad row added after that is named
    scenario = generate_scenario(ScenarioSpec(seed=1))
    prog = build_opf(valid_hour(scenario.network, scenario.hours[0]))
    assert prog.validate() == [] and prog.arrays is None
    prog.add_row("extra", {"theta_2": math.nan, "ghost": 1.0}, "<=", 1.0)
    assert prog.validate() == [
        "row 'extra': non-finite coefficient nan on column 'theta_2'",
        "row 'extra' references unknown column 'ghost'"]


def test_solving_built_hours_reads_no_dicts(monkeypatch):
    # a study's solves, readouts and cost ranging work on each hour's arrays:
    # no program's columns or rows are built from them
    read = []
    monkeypatch.setattr(LinearProgram, "_read_arrays", lambda prog: read.append(prog.name))
    scenario = generate_scenario(ScenarioSpec(seed=7, line_limit_case="finite"))
    run = run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    assert run.report.hours_active > 0
    sweep = sweep_pi_des(scenario.network, scenario.hours, 3, [60.0, 70.0, 80.0],
                         {"finite": None})
    assert sweep.rows[0].total_revenue_eur > 0
    prog = build_opf(Grid(scenario.network).hours(scenario.hours)[0])
    assert simplex.solve_program(prog).status == "optimal"
    assert read == [] and prog.arrays is not None


def checked_input(name):
    """Network, 24 hours and a cap that ``Grid.hours`` accepts, by name."""
    from test_hedging import tie_hours
    from test_mesh_oracle import seeded_mesh  # it imports test_hedging

    if name.startswith("paper-3bus"):
        _, seed, case = name.rsplit("-", 2)
        scenario = generate_scenario(ScenarioSpec(seed=int(seed), line_limit_case=case))
        return scenario.network, scenario.hours, PriceCap(3, 70.0)
    if name.startswith("mesh"):
        return seeded_mesh(int(name[4:]), 1)
    if name == "tie-hours":
        return build_3bus_network("infinite"), tie_hours(), PriceCap(3, 70.0)
    if name == "24-value-cap":
        scenario = generate_scenario(ScenarioSpec(seed=1))
        return scenario.network, scenario.hours, PriceCap(3, tuple(50.0 + h for h in range(24)))
    # the ends of each valid range: a limit and a reactance near the smallest
    # and largest floats, an unlimited offer at no cost, a firm load, a cap of 0
    net = Network(triangle().buses, [Line(1, 2, 0.1, 1e-300), Line(1, 3, 1e-300, 1e300),
                                     Line(2, 3, 0.1)])
    hours = [HourlyMarketData(h, offers=[GenOffer(1, 0.0, 0.0, INF), GenOffer(2, 0.0)],
                              utilities=[LoadUtility(3, 60.0, 0.0, 0.5, 0.5)])
             for h in range(1, 25)]
    return net, hours, PriceCap(3, 0.0)


@pytest.mark.parametrize("name", [f"paper-3bus-{seed}-{case}" for seed in (1, 7, 42)
                                  for case in ("infinite", "finite")]
                         + ["mesh10", "mesh30", "mesh60", "tie-hours", "24-value-cap",
                            "edge-values"])
def test_every_checked_hour_builds_a_well_formed_program(name):
    # solve_opf_hour and a sweep solve build_opf's program without
    # LinearProgram.validate: the check would find nothing in any hour that
    # Grid.hours accepts, rows and coefficients included
    net, series, cap = checked_input(name)
    grid = Grid(net)
    for caps in ((), (cap,)):
        for hour in grid.hours(series, caps):
            prog = build_opf(hour)
            assert prog.arrays is not None and prog.validate() == [], (hour.data.hour, caps)


def test_overflowing_susceptance_sum_is_still_named():
    # each line's susceptance is finite, but bus 1's diagonal term sums two
    net = Network([Bus(1, is_slack=True), Bus(2), Bus(3, price_constrained=True)],
                  [Line(1, 2, 1e-308), Line(1, 3, 1e-308)])
    problem = "bus 1: its lines' susceptances sum past the largest float"
    assert validate_network(net) == [problem]
    data = HourlyMarketData(1, [GenOffer(1, 40.0, 0.0, 5.0)], [LoadUtility(3, 60.0, 0.0, 1.0, 1.0)])
    with pytest.raises(ValueError, match=problem):
        valid_hour(net, data)
