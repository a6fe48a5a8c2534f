"""Differential oracle past three buses: seeded meshes against HiGHS and cold solves.

The brute-force oracle only reaches the 3-bus study.  Here each hour of a
seeded 10- or 30-bus mesh is checked twice: both passes' objectives against
``scipy.optimize.linprog(method="highs")``, and every hour against a solve of
the same program from the slack basis (same basis set, same objective and
prices).  Pass 1 starts from the network's crash basis and pass 2 from pass
1's optimal basis, and neither start may fall back to the slack basis.  An
hour priced at or below the cap keeps pass 1's vertex in pass 2; that result
must equal a warm solve of the hour's pass-2 program.

Two more checks reach past three buses: every LMP of a non-degenerate hour
against HiGHS's equality marginals, and the paper's capped dual
(``opf.capped_dual``) against every pass-2 hour, objective and flexibility.
"""

from __future__ import annotations

import random
import statistics

import numpy as np
import pytest

from flexhedge import simplex
from flexhedge.hedging import run_hedge
from flexhedge.lp import INF, solve
from flexhedge.model import Bus, GenOffer, HourlyMarketData, Line, LoadUtility, Network, PriceCap
from flexhedge.opf import (
    Grid,
    build_opf,
    capped_dual,
    solve_opf_hour,
    solve_opf_series,
)
from flexhedge.scenario import (
    DEFAULT_LOAD_PROFILE_MW,
    DEFAULT_WHOLESALE_EUR_MWH,
    generate_scenario,
    preset_spec,
)

from oracles import valid_hour
from test_hedging import pass2_solved

HIGHS_RTOL = 1e-6
COLD_RTOL = 1e-9
MARGINAL_RTOL = 1e-9
CAPPED_DUAL_RTOL = 1e-9


def seeded_mesh(n_buses: int, seed: int):
    """Network, 24 hours and a cap binding in about half of them.

    A random spanning tree rooted at slack bus 1 plus ``n_buses // 2`` chords,
    a third of the lines limited.  Elastic loads may fall to zero and the
    capped bus has a peaker covering its firm load, so zero flow on every line
    is always feasible.
    """
    rng = random.Random(seed)
    edges = [(rng.randrange(1, b), b) for b in range(2, n_buses + 1)]
    while len(edges) < n_buses - 1 + n_buses // 2:
        a, b = sorted(rng.sample(range(1, n_buses + 1), 2))
        if (a, b) not in edges:
            edges.append((a, b))
    lines = [Line(a, b, rng.uniform(0.05, 0.3),
                  rng.uniform(0.2, 1.2) if rng.random() < 1 / 3 else INF)
             for a, b in edges]
    capped = n_buses
    buses = [Bus(b, is_slack=b == 1, price_constrained=b == capped)
             for b in range(1, n_buses + 1)]
    net = Network(buses, lines)

    others = list(range(2, n_buses))
    gens = {b: (rng.uniform(0.6, 1.1), rng.uniform(0.5, 2.0))
            for b in rng.sample(others, len(others) // 2)}
    loads = {b: (rng.uniform(1.2, 1.6), rng.uniform(0.3, 1.2))
             for b in rng.sample(others, 2 * len(others) // 3)}
    firm_peak = rng.uniform(1.5, 2.5)
    hours = []
    for hour in range(1, 25):
        w = DEFAULT_WHOLESALE_EUR_MWH[hour - 1]
        shape = DEFAULT_LOAD_PROFILE_MW[hour - 1]
        offers = [GenOffer(1, w, 0.0, 1000.0)]
        offers += [GenOffer(b, w * f * rng.uniform(0.9, 1.1), 0.0, cap)
                   for b, (f, cap) in sorted(gens.items())]
        offers.append(GenOffer(capped, w * 1.8, 0.0, firm_peak))
        utilities = [LoadUtility(b, w * f * rng.uniform(0.9, 1.1), 0.0, 0.0,
                                 peak * shape * rng.uniform(0.9, 1.1))
                     for b, (f, peak) in sorted(loads.items())]
        utilities.append(LoadUtility(capped, w * 2.7, 0.0, firm_peak * shape, firm_peak * shape))
        hours.append(HourlyMarketData(hour, offers, utilities))

    prices = [r.lmp_eur_mwh[capped] for r in solve_opf_series(net, hours)]
    return net, hours, PriceCap(capped, statistics.median(prices))


def highs(prog):
    """``linprog(method="highs")``'s result for ``prog`` as a minimisation, a
    maximize program's objective negated, and the names of its equality rows
    in the order of ``res.eqlin.marginals``.  Skips the test without scipy."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    names = list(prog.columns)
    index = {name: j for j, name in enumerate(names)}
    sign = -1.0 if prog.sense == "maximize" else 1.0
    c = np.array([sign * prog.columns[n].objective for n in names])
    a_eq, b_eq, a_ub, b_ub, eq_rows = [], [], [], [], []
    for row in prog.rows.values():
        dense = np.zeros(len(names))
        for name, coef in row.coeffs.items():
            dense[index[name]] += coef
        if row.relation == "=":
            a_eq.append(dense)
            b_eq.append(row.rhs)
            eq_rows.append(row.name)
        else:
            flip = 1.0 if row.relation == "<=" else -1.0
            a_ub.append(flip * dense)
            b_ub.append(flip * row.rhs)
    bounds = [(None if col.lower == -INF else col.lower, None if col.upper == INF else col.upper)
              for col in prog.columns.values()]
    res = linprog(c, A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
                  A_eq=np.array(a_eq) if a_eq else None, b_eq=b_eq or None,
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res, eq_rows


def highs_objective(prog) -> float:
    sign = -1.0 if prog.sense == "maximize" else 1.0
    return sign * highs(prog)[0].fun + prog.constant


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * (1 + abs(b))


# 60 buses: pass-1 hours pivot past _REFACTOR_EVERY, so phase 2 carries the
# updated B^-1 across a fresh inversion
@pytest.mark.parametrize("n_buses, seed", [(10, 3), (10, 4), (30, 5), (60, 1)])
def test_mesh_day_matches_highs_and_cold_solves(monkeypatch, n_buses, seed):
    pytest.importorskip("scipy.optimize")
    net, hours, cap = seeded_mesh(n_buses, seed)
    solved, starts = [], []
    original, start = simplex.solve_program, simplex._start

    def recording(lp):
        starts.clear()
        solved.append((lp, original(lp), len(starts)))
        return solved[-1][1]

    monkeypatch.setattr(simplex, "solve_program", recording)
    monkeypatch.setattr(simplex, "_start", lambda st: starts.append(st) or start(st))
    run = run_hedge(net, hours, cap)
    assert 0 < run.report.hours_active < 24
    # pass 2 solves only the hours priced above the cap; build and solve the
    # others here, warm from pass 1's basis, so all 48 programs are checked
    assert len(solved) == 24 + sum(r.lmp_eur_mwh[cap.bus] > cap.cap_eur_per_mwh
                                   for r in run.unconstrained)
    pass2 = {entry[0].name: entry for entry in solved[24:]}
    for data, unc in zip(hours, run.unconstrained):
        if f"opf_h{data.hour}" not in pass2:
            prog = build_opf(valid_hour(net, data, (cap,)))
            prog.start = unc.basis
            simplex.solve_program(prog)
            pass2[prog.name] = solved.pop()
    solved[24:] = [pass2[f"opf_h{data.hour}"] for data in hours]
    monkeypatch.undo()
    assert len(solved) == 48
    # one start per solve: the given start was used, the slack basis never
    assert [n_starts for _, _, n_starts in solved] == [1] * 48
    grid = Grid(net)
    assert [prog.start for prog, _, _ in solved[:24]] == [grid.layout(h).crash
                                                         for h in grid.hours(hours)]

    for prog, sol, _ in solved:
        assert sol.status == "optimal"
        assert close(sol.objective_value, highs_objective(prog), HIGHS_RTOL), prog.name

    for passed in (solved[:24], solved[24:]):
        started_iterations = cold_iterations = 0
        for prog, started, _ in passed:
            assert prog.start is not None
            prog.start = None
            cold = simplex.solve_program(prog)
            assert set(started.basis) == set(cold.basis), prog.name
            assert set(started.nonbasic_at_upper) == set(cold.nonbasic_at_upper), prog.name
            assert close(started.objective_value, cold.objective_value, COLD_RTOL), prog.name
            for bus in net.buses:
                row = f"balance_{bus.id}"
                assert close(started.duals[row], cold.duals[row], COLD_RTOL), (prog.name, row)
            started_iterations += started.iterations
            cold_iterations += cold.iterations
        assert started_iterations < cold_iterations


@pytest.mark.parametrize("n_buses, seed", [(10, 1), (10, 2), (10, 3), (10, 4), (30, 5), (30, 6)])
def test_mesh_pass2_keeps_pass1_vertex_only_where_a_solve_would(monkeypatch, n_buses, seed):
    net, hours, cap = seeded_mesh(n_buses, seed)
    assert 0 < len(pass2_solved(monkeypatch, net, hours, cap)) < 24


@pytest.mark.parametrize("n_buses, seed", [(10, 3), (10, 4), (30, 5)])
def test_mesh_lmps_match_highs_marginals(n_buses, seed):
    # HiGHS minimises -welfare, so a balance row's marginal is d(-welfare)/d(rhs):
    # the cost of one more MW of generation than load there, the price load pays
    pytest.importorskip("scipy.optimize")
    net, hours, _ = seeded_mesh(n_buses, seed)
    checked = 0
    for data, res in zip(hours, solve_opf_series(net, hours)):
        if res.degenerate:
            continue
        highs_res, eq_rows = highs(build_opf(valid_hour(net, data)))
        marginals = dict(zip(eq_rows, highs_res.eqlin.marginals))
        for bus, lmp in res.lmp_eur_mwh.items():
            assert close(lmp, marginals[f"balance_{bus}"], MARGINAL_RTOL), (data.hour, bus)
            checked += 1
    assert checked >= 20 * n_buses


@pytest.mark.parametrize("kind, size_or_case, seed",
                         [("paper-3bus", case, seed) for seed in (1, 7, 42)
                          for case in ("finite", "infinite")]
                         + [("mesh", 10, seed) for seed in (1, 2, 3)] + [("mesh", 30, 1)])
def test_capped_dual_equals_pass2_at_network_scale(kind, size_or_case, seed):
    # the paper's formulation: cap the price, a dual variable, and read the
    # flexibility off the cap row's dual; the program minimises, so that dual is <= 0
    if kind == "mesh":
        net, hours, cap = seeded_mesh(size_or_case, seed)
    else:
        scenario = generate_scenario(preset_spec(kind, case=size_or_case, seed=seed))
        net, hours, cap = scenario.network, scenario.hours, PriceCap(3, 70.0)
    run = run_hedge(net, hours, cap)
    assert run.report.hours_active > 0
    for data, hedged in zip(hours, run.hedged):
        sol = solve(capped_dual(valid_hour(net, data, (cap,))))
        assert sol.status == "optimal", data.hour
        assert close(sol.objective_value, hedged.objective_eur, CAPPED_DUAL_RTOL), data.hour
        flex = hedged.p_flexreq_mw[cap.bus]
        assert abs(sol.duals[f"price_cap_{cap.bus}"] + flex) <= CAPPED_DUAL_RTOL, data.hour


@pytest.mark.parametrize("n_buses, seed", [(10, 3), (30, 5)])
def test_cost_range_ends_where_a_re_solve_changes_basis(n_buses, seed):
    # pflex's objective is -pi; a basis is its basic set and the columns at
    # their upper bounds, since an end can be a bound flip
    net, hours, cap = seeded_mesh(n_buses, seed)
    step = 1e-6

    def pass2(data, unc, pi):
        inp = valid_hour(net, data, (PriceCap(cap.bus, pi),))
        hed = solve_opf_hour(inp, unc.basis)  # as run_hedge solves it
        return inp, hed, (sorted(hed.basis[0]), hed.basis[1])

    ends = 0
    for data, unc in zip(hours, solve_opf_series(net, hours)):
        pi = cap.cap_eur_per_mwh
        if unc.lmp_eur_mwh[cap.bus] <= pi:
            continue
        inp, hed, basis = pass2(data, unc, pi)
        assert not hed.degenerate, data.hour
        prog = build_opf(inp)
        prog.start = hed.basis  # the optimum the sweep ranges, solved again
        sol = solve(prog)
        assert (sol.basis, sol.nonbasic_at_upper) == hed.basis, data.hour
        c_lo, c_hi = simplex.cost_ranges([(prog, sol)], f"pflex_{cap.bus}")[0]
        assert -c_hi < pi < -c_lo, data.hour
        for end, inward in ((-c_hi, 1.0), (-c_lo, -1.0)):
            if not step < end < INF:
                continue
            assert pass2(data, unc, end + inward * step)[2] == basis, (data.hour, end)
            assert pass2(data, unc, end - inward * step)[2] != basis, (data.hour, end)
            ends += 1
    assert ends >= 20


@pytest.mark.parametrize("n_buses, run_iterations, cold_iterations", [(10, 342, 552), (30, 1036, 1761)])
def test_mesh_pivot_path_is_pinned(monkeypatch, n_buses, run_iterations, cold_iterations):
    # a change in a pivot rule or in the basis arithmetic moves these counts;
    # the cold solves from the slack basis also enter the free angle columns,
    # which run_hedge's crash starts hold basic throughout
    net, hours, cap = seeded_mesh(n_buses, 1)
    solutions = []
    original = simplex.solve_program

    def recording(lp):
        solutions.append(original(lp))
        return solutions[-1]

    monkeypatch.setattr(simplex, "solve_program", recording)
    run_hedge(net, hours, cap)
    monkeypatch.undo()
    assert sum(s.iterations for s in solutions) == run_iterations
    cold = []
    for hour in Grid(net).hours(hours):
        prog = build_opf(hour)
        prog.start = None  # from the slack basis, not build_opf's crash start
        cold.append(simplex.solve_program(prog))
    assert sum(s.iterations for s in cold) == cold_iterations
