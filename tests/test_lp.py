"""LP core: simplex statuses, duals, strong duality, KKT residuals."""

import dataclasses
import random

import pytest

from flexhedge import simplex
from flexhedge.hedging import run_hedge, sweep_pi_des
from flexhedge.lp import (
    INF,
    MAX_ITERATIONS,
    LinearProgram,
    MalformedProgramError,
    SolverFailureError,
    dual_of,
    dual_program,
    solve,
    to_lp_format,
    verify_kkt,
)
from flexhedge.model import PriceCap
from flexhedge.opf import Grid, build_opf, solve_opf_hour, solve_opf_program
from flexhedge.scenario import (FINITE_LIMIT_MW, build_3bus_network, generate_scenario,
                                preset_spec)

from oracles import brute_force_optimum, enumerate_optima, oracle_row_dual, valid_hour
from test_hedging import tie_hours, two_layout_day
from test_mesh_oracle import seeded_mesh


def simple_cap_lp():
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, INF, objective=1.0)
    lp.add_row("cap", {"x": 1.0}, "<=", 5.0)
    return lp


def ed_lp(a=80.0, b=75.0, p_min=0.0, p_max=1.0):
    lp = LinearProgram("maximize")
    lp.add_column("p_g", 0.0, INF, objective=-a)
    lp.add_column("p_l", p_min, p_max, objective=b)
    lp.add_row("balance", {"p_g": 1.0, "p_l": -1.0}, "=", 0.0)
    return lp


def test_single_variable_cap():
    sol = solve(simple_cap_lp())
    assert sol.status == "optimal"
    assert sol.primal["x"] == pytest.approx(5.0, abs=1e-9)
    assert sol.duals["cap"] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(5.0, abs=1e-9)


def test_cost_range_of_a_tie_is_empty():
    # where generation costs what the load is worth, every load level above
    # its floor is optimal: p_g is basic between its bounds, p_l prices at zero
    lp = ed_lp(a=75.0, b=75.0, p_min=0.2)
    sol = solve(lp)
    assert sol.basis == ("p_g",) and not sol.degenerate
    assert simplex.cost_ranges([(lp, sol)], "p_g")[0] == (-75.0, -75.0)
    # otherwise the basis holds until the load's worth prices generation in
    lp = ed_lp(a=50.0, b=90.0)
    sol = solve(lp)
    assert sol.basis == ("p_g",) and sol.nonbasic_at_upper == ("p_l",)
    assert simplex.cost_ranges([(lp, sol)], "p_g")[0] == (-90.0, INF)
    with pytest.raises(ValueError, match="not basic"):
        simplex.cost_ranges([(lp, sol)], "p_l")


def test_cost_range_of_a_degenerate_optimum_is_empty():
    # p_l is basic at its upper bound; its basis alone would range p_l's cost
    # over (50, inf), but a start from a degenerate optimum falls back to the
    # slack basis, which may end elsewhere
    lp = LinearProgram("maximize")
    lp.add_column("p_g", 0.0, 1.0, objective=-50.0)
    lp.add_column("p_l", 0.0, 1.0, objective=90.0)
    lp.add_row("balance", {"p_g": 1.0, "p_l": -1.0}, "=", 0.0)
    sol = solve(lp)
    assert sol.degenerate and sol.basis == ("p_l",) and sol.reduced_costs["p_g"] == 40.0
    assert simplex.cost_ranges([(lp, sol)], "p_l")[0] == (90.0, 90.0)


def flex_lp(flex_cost, flex_max=INF):
    # bus 3's 1 MW load, served by an import at 80 or by flexibility
    lp = LinearProgram("maximize")
    lp.add_column("pg_1", 0.0, INF, objective=-80.0)
    lp.add_column("pflex_3", 0.0, flex_max, objective=-flex_cost)
    lp.add_column("pl_3", 1.0, 1.0, objective=100.0)
    lp.add_row("balance_3", {"pg_1": 1.0, "pflex_3": 1.0, "pl_3": -1.0}, "=", 0.0)
    return lp, solve(lp)


def capped_solves(net, series, pi):
    """Each hour priced above ``pi`` at bus 3, solved with flexibility there
    from its pass-1 basis, as a sweep solves it; one grid, so hours of one
    column layout share it."""
    pairs = []
    for hour in Grid(net).hours(series, (PriceCap(3, pi),)):
        unc = solve_opf_hour(dataclasses.replace(hour, caps=()))
        if unc.lmp_eur_mwh[3] > pi:
            pairs.append(solve_opf_program(hour, unc.basis))
    return pairs


def test_cost_ranges_of_a_mixed_batch_are_each_pairs_own():
    two_layouts = capped_solves(*two_layout_day(), 70.0)
    assert len({simplex.program_arrays(prog)[0] for prog, _ in two_layouts}) == 2
    ties = capped_solves(build_3bus_network("infinite"), tie_hours(), 70.0)
    degenerate = flex_lp(70.0, flex_max=1.0)  # pflex_3 basic at its upper bound
    hand_built = flex_lp(70.0)
    assert degenerate[1].degenerate and hand_built[1].basis == ("pflex_3",)
    pairs = two_layouts + ties + [degenerate, hand_built]
    ranges = simplex.cost_ranges(pairs, "pflex_3")
    assert ranges == [simplex.cost_ranges([pair], "pflex_3")[0] for pair in pairs]
    # hour 20's local offer costs the cap: a tie, not a degenerate optimum
    tie = [prog.name for prog, _ in ties].index("opf_h20")
    assert ranges[len(two_layouts) + tie] == (-70.0, -70.0) and not ties[tie][1].degenerate
    assert ranges[-2:] == [(-70.0, -70.0), (-80.0, INF)]
    assert all(lo < hi for lo, hi in ranges[:len(two_layouts)])
    nonbasic = flex_lp(90.0)
    assert "pflex_3" not in nonbasic[1].basis
    with pytest.raises(ValueError, match="not basic"):
        simplex.cost_ranges(pairs + [nonbasic], "pflex_3")


def test_unbounded():
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, INF, objective=1.0)
    sol = solve(lp)
    assert sol.status == "unbounded"


def test_infeasible():
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, INF, objective=1.0)
    lp.add_row("r", {"x": 1.0}, "<=", -1.0)
    assert solve(lp).status == "infeasible"


def test_equality_system_with_free_variable():
    lp = LinearProgram("maximize")
    lp.add_column("x", -INF, INF, objective=-2.0)
    lp.add_row("fix", {"x": 1.0}, "=", 3.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.primal["x"] == pytest.approx(3.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(-6.0, abs=1e-9)


def test_minimize_sense():
    lp = LinearProgram("minimize")
    lp.add_column("x", 0.0, INF, objective=1.0)
    lp.add_row("floor", {"x": 1.0}, ">=", 2.0)
    sol = solve(lp)
    assert sol.primal["x"] == pytest.approx(2.0, abs=1e-9)
    # minimize: tightening a >= row raises the objective, dual >= 0
    assert sol.duals["floor"] == pytest.approx(1.0, abs=1e-9)


def test_ed_instance_against_vertex_oracle():
    lp = ed_lp()
    expected_obj, expected_x = brute_force_optimum(lp)
    assert expected_obj == pytest.approx(0.0, abs=1e-12)
    assert expected_x["p_g"] == pytest.approx(0.0, abs=1e-9)
    assert expected_x["p_l"] == pytest.approx(0.0, abs=1e-9)

    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(expected_obj, abs=1e-9)
    assert sol.primal["p_l"] == pytest.approx(0.0, abs=1e-9)
    # the vertex is degenerate (load floor, generator floor and balance all
    # active), so the balance dual is any point of the subgradient interval:
    # dual feasibility bounds the load price between b and a
    price = -sol.duals["balance"]
    assert 75.0 - 1e-9 <= price <= 80.0 + 1e-9
    assert sol.degenerate


def test_dual_consistent_with_strong_duality():
    lp = ed_lp()
    primal = solve(lp)
    dual_sol = solve(dual_program(lp))
    assert dual_sol.status == "optimal"
    gap = abs(primal.objective_value - dual_sol.objective_value)
    assert gap <= 1e-6 * (1 + abs(primal.objective_value))


def test_inactive_row_dual_is_zero():
    lp = simple_cap_lp()
    lp.add_row("slack_row", {"x": 1.0}, "<=", 9.0)
    sol = solve(lp)
    assert dual_of(sol, "slack_row") == pytest.approx(0.0, abs=1e-9)


def test_active_load_bound_dual():
    # b > a: load pinned at its upper bound, reduced cost equals b - a
    lp = ed_lp(a=50.0, b=90.0)
    sol = solve(lp)
    assert sol.primal["p_l"] == pytest.approx(1.0, abs=1e-9)
    assert sol.reduced_costs["p_l"] == pytest.approx(40.0, abs=1e-9)


def test_dual_of_unknown_row():
    sol = solve(simple_cap_lp())
    with pytest.raises(KeyError):
        dual_of(sol, "nope")


def test_unknown_sense_is_malformed():
    with pytest.raises(MalformedProgramError) as exc:
        LinearProgram("sideways")
    assert str(exc.value) == "sense must be maximize|minimize, got 'sideways'"


def test_validate_names_a_nan_bound():
    lp = LinearProgram("maximize")
    lp.add_column("x", float("nan"), 1.0, objective=1.0)
    assert lp.validate() == ["column 'x': lower nan > upper 1.0", "column 'x': NaN in bounds"]


def test_duals_of_an_infeasible_solution_are_undefined():
    lp = simple_cap_lp()
    lp.add_row("floor", {"x": 1.0}, ">=", 6.0)
    sol = solve(lp)
    assert sol.status == "infeasible"
    with pytest.raises(ValueError) as exc:
        dual_of(sol, "cap")
    assert str(exc.value) == "duals undefined for status 'infeasible'"


def test_malformed_program_rejected():
    lp = LinearProgram("maximize")
    lp.add_column("x", 2.0, 1.0, objective=1.0)
    with pytest.raises(MalformedProgramError):
        solve(lp)
    lp2 = LinearProgram("maximize")
    lp2.add_column("x", 0.0, 1.0)
    lp2.add_row("r", {"ghost": 1.0}, "<=", 1.0)
    with pytest.raises(MalformedProgramError):
        solve(lp2)
    with pytest.raises(MalformedProgramError):
        LinearProgram("maximize").add_row("r", {}, "<<", 0.0)


@pytest.mark.parametrize("objective, rhs, problem", [
    (INF, 5.0, "column 'x': non-finite objective inf"),
    (-INF, 5.0, "column 'x': non-finite objective -inf"),
    (1.0, INF, "row 'cap': non-finite right-hand side inf"),
    (1.0, float("nan"), "row 'cap': non-finite right-hand side nan"),
])
def test_non_finite_objective_or_rhs_rejected(objective, rhs, problem):
    # an infinite right-hand side used to reach the simplex and fail there
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, INF, objective=objective)
    lp.add_row("cap", {"x": 1.0}, "<=", rhs)
    with pytest.raises(MalformedProgramError) as exc:
        solve(lp)
    assert str(exc.value) == problem


@pytest.mark.parametrize("coef", [INF, float("nan")])
def test_non_finite_coefficient_rejected(coef):
    # used to reach the simplex, whose slack-basis start then failed
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, 1.0, objective=1.0)
    lp.add_column("y", 0.0, 1.0, objective=1.0)
    lp.add_row("r", {"x": coef, "y": 1.0}, "<=", 1.0)
    with pytest.raises(MalformedProgramError) as exc:
        solve(lp)
    assert str(exc.value) == f"row 'r': non-finite coefficient {coef} on column 'x'"


def test_overflowing_slack_basis_start_is_a_solver_failure():
    # finite data, but the resting column times its coefficient overflows
    lp = LinearProgram("maximize")
    lp.add_column("x", 1e300, INF, objective=-1.0)
    lp.add_row("r", {"x": 1e300}, "<=", 1.0)
    with pytest.raises(SolverFailureError, match="non-finite value at the slack-basis start"):
        solve(lp)


def test_overflowing_optimal_dual_is_a_solver_failure():
    # finite data and a finite optimum x = 1000, but its dual 1e307 / 1e-3 overflows
    lp = LinearProgram("minimize")
    lp.add_column("x", 0.0, INF, objective=1e307)
    lp.add_row("r", {"x": 1e-3}, ">=", 1.0)
    with pytest.raises(SolverFailureError, match="non-finite value in the optimal solution"):
        solve(lp)


def test_duplicate_names_rejected():
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, 1.0)
    with pytest.raises(MalformedProgramError):
        lp.add_column("x", 0.0, 2.0)
    lp.add_row("r", {"x": 1.0}, "<=", 1.0)
    with pytest.raises(MalformedProgramError):
        lp.add_row("r", {"x": 1.0}, "<=", 2.0)


def test_bound_flip_path():
    # optimum needs x at its upper bound with the row still slack
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, 3.0, objective=2.0)
    lp.add_column("y", 0.0, 2.0, objective=1.0)
    lp.add_row("r", {"x": 1.0, "y": 1.0}, "<=", 4.0)
    sol = solve(lp)
    assert sol.primal == {"x": 3.0, "y": 1.0}
    assert sol.objective_value == pytest.approx(7.0)
    assert verify_kkt(lp, sol).within(1e-6)


def test_consecutive_bound_flips_keep_the_prices():
    # x and y flip to their upper bounds back to back on one basis's prices,
    # then z enters and the row's slack leaves
    lp = LinearProgram("maximize")
    for name, objective in (("x", 3.0), ("y", 2.0), ("z", 1.0)):
        lp.add_column(name, 0.0, 1.0, objective=objective)
    lp.add_row("r", {"x": 1.0, "y": 1.0, "z": 1.0}, "<=", 2.5)
    sol = solve(lp)
    assert sol.iterations == 4  # flip x, flip y, pivot z in, final pricing
    assert sol.basis == ("z",)
    assert sol.nonbasic_at_upper == ("x", "y")
    assert sol.primal["z"] == 0.5
    assert verify_kkt(lp, sol).within(1e-6)


def test_constant_term_shifts_objective_only():
    lp = ed_lp(a=50.0, b=90.0)
    base = solve(lp)
    lp.constant = 123.456
    shifted = solve(lp)
    assert shifted.objective_value == pytest.approx(base.objective_value + 123.456)
    assert shifted.primal == base.primal


def test_determinism_bit_for_bit():
    lp = ed_lp(a=50.0, b=90.0, p_min=0.2, p_max=1.0)
    first = solve(lp)
    second = solve(lp)
    assert first == second


def test_rebuild_solution_reproduces_vertex():
    lp = ed_lp(a=50.0, b=90.0, p_min=0.2, p_max=1.0)
    sol = solve(lp)
    rebuilt = simplex.solution_from_basis(lp, sol.basis, sol.nonbasic_at_upper)
    assert rebuilt.primal == sol.primal
    assert rebuilt.duals == sol.duals
    assert rebuilt.objective_value == sol.objective_value


def test_singular_basis_is_named_error():
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, 1.0, objective=1.0)
    lp.add_column("y", 0.0, 1.0, objective=1.0)
    lp.add_row("a", {"x": 1.0, "y": 2.0}, "<=", 3.0)
    lp.add_row("b", {"x": 2.0, "y": 4.0}, "<=", 6.0)
    with pytest.raises(SolverFailureError, match="singular basis"):
        simplex.solution_from_basis(lp, ("x", "y"), ())


def dense_lp(seed, rows=60, cols=60):
    """Seeded dense LP: every fourth row a >= row that phase 1 must repair."""
    rng = random.Random(seed)
    lp = LinearProgram("maximize", name=f"dense{seed}")
    for j in range(cols):
        lp.add_column(f"x{j}", 0.0, rng.uniform(1.0, 10.0), objective=rng.uniform(-2.0, 10.0))
    for i in range(rows):
        coeffs = {f"x{j}": rng.uniform(0.1, 1.0) for j in range(cols)}
        if i % 4 == 0:
            lp.add_row(f"r{i}", coeffs, ">=", rng.uniform(5.0, 15.0))
        else:
            lp.add_row(f"r{i}", coeffs, "<=", rng.uniform(20.0, 60.0))
    return lp


def test_long_solve_past_refactorisation_is_exact(monkeypatch):
    # more pivots than lie between fresh basis inversions: drift in the
    # updated inverse must neither move the vertex nor reach the outputs
    calls, solves = [], []
    inverse, solve_ = simplex._inverse, simplex._solve
    monkeypatch.setattr(simplex, "_inverse", lambda B: calls.append(B) or inverse(B))
    monkeypatch.setattr(simplex, "_solve", lambda M, r: solves.append(M) or solve_(M, r))
    # one inversion at the start, carried through both phases, and the two
    # fresh solves of _extract; 110 iterations at 200x200 re-invert twice,
    # each with a full solve of the basic values
    for size, iterations, inversions, n_solves in ((60, 43, 1, 2), (200, 110, 3, 4)):
        calls.clear()
        solves.clear()
        lp = dense_lp(2, rows=size, cols=size)
        sol = solve(lp)
        assert sol.status == "optimal"
        assert (sol.iterations, len(calls), len(solves)) == (iterations, inversions, n_solves)
        assert verify_kkt(lp, sol).within(1e-9)
        rebuilt = simplex.solution_from_basis(lp, sol.basis, sol.nonbasic_at_upper)
        assert rebuilt == dataclasses.replace(sol, iterations=0)


def beale_lp():
    """Beale (1955): Dantzig's rule with lowest-index ratio ties cycles here."""
    lp = LinearProgram("minimize", name="beale")
    for name, cost in (("x4", -0.75), ("x5", 20.0), ("x6", -0.5), ("x7", 6.0)):
        lp.add_column(name, 0.0, INF, objective=cost)
    lp.add_row("r1", {"x4": 0.25, "x5": -8.0, "x6": -1.0, "x7": 9.0}, "<=", 0.0)
    lp.add_row("r2", {"x4": 0.5, "x5": -12.0, "x6": -0.5, "x7": 3.0}, "<=", 0.0)
    lp.add_row("r3", {"x6": 1.0}, "<=", 1.0)
    return lp


def test_bland_fallback_breaks_beales_cycle(monkeypatch):
    lp = beale_lp()
    sol = solve(lp)
    assert sol.status == "optimal" and sol.objective_value == -1.25
    assert verify_kkt(lp, sol).within(1e-9)
    # the row order records the entering and leaving tie rules
    assert (sol.iterations, sol.basis) == (13, ("x6", "slack:r1", "x4"))
    monkeypatch.setattr(simplex, "_BLAND_AFTER", MAX_ITERATIONS)
    with pytest.raises(SolverFailureError, match="iteration cap"):
        solve(lp)


# ---------------------------------------------------------------------------
# Warm starts

def _bounded_x_lp():
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, 3.0, objective=1.0)
    lp.add_column("y", 0.0, INF, objective=-1.0)
    lp.add_row("r", {"x": 1.0, "y": -1.0}, "<=", 5.0)
    return lp


def _singular_lp():
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, 1.0, objective=1.0)
    lp.add_column("y", 0.0, 1.0, objective=1.0)
    lp.add_row("a", {"x": 1.0, "y": 2.0}, "<=", 3.0)
    lp.add_row("b", {"x": 2.0, "y": 4.0}, "<=", 6.0)
    return lp


def _degenerate_lp():
    # the same bound twice: one of the two slacks stays basic at zero
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, INF, objective=1.0)
    lp.add_row("r1", {"x": 1.0}, "<=", 1.0)
    lp.add_row("r2", {"x": 1.0}, "<=", 1.0)
    return lp


@pytest.mark.parametrize("make, start", [
    (_bounded_x_lp, (("z",), ())),                       # unknown column
    (_bounded_x_lp, (("slack:q",), ())),                 # unknown slack
    (_bounded_x_lp, (("artificial:r",), ())),            # artificial entry
    (_bounded_x_lp, (("x", "y"), ())),                   # two basics for one row
    (_bounded_x_lp, (("slack:r",), ("y",))),             # y rests at an infinite bound
    (_bounded_x_lp, (("x",), ())),                       # x = 5 > 3: primal-infeasible
    (_singular_lp, (("x", "y"), ())),                    # singular
    (_degenerate_lp, (("x", "slack:r2"), ())),           # degenerate warm optimum
], ids=["unknown-column", "unknown-slack", "artificial", "basis-size", "infinite-bound",
        "infeasible", "singular", "degenerate"])
def test_unusable_warm_start_falls_back_to_cold(make, start):
    cold = solve(make())
    warm_lp = make()
    warm_lp.start = start
    assert solve(warm_lp) == cold


def test_degenerate_fallback_is_not_the_warm_vertex():
    # without the fallback this start would be accepted after one pricing pass
    lp = _degenerate_lp()
    cold = solve(lp)
    assert cold.degenerate and cold.basis == ("x", "slack:r2")
    assert cold.iterations > 1


def test_optimal_start_takes_one_iteration():
    lp = dense_lp(2)
    cold = solve(lp)
    assert not cold.degenerate
    lp.start = (cold.basis, cold.nonbasic_at_upper)
    warm = solve(lp)
    assert warm.iterations == 1
    rebuilt = simplex.solution_from_basis(lp, cold.basis, cold.nonbasic_at_upper)
    assert warm == dataclasses.replace(rebuilt, iterations=1)
    assert verify_kkt(lp, warm).within(1e-9)


def _above_a_floor_lp():
    # maximize x - y with x - y >= 1 and x <= 3: the optimum is x = 3, y = 0;
    # the slack of r has only its upper bound, 0, finite
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, 5.0, objective=1.0)
    lp.add_column("y", 0.0, 5.0, objective=-1.0)
    lp.add_row("r", {"x": 1.0, "y": -1.0}, ">=", 1.0)
    lp.add_row("cap", {"x": 1.0}, "<=", 3.0)
    return lp


@pytest.mark.parametrize("basis", [("x", "slack:cap"), ("y", "x")])
def test_a_start_rests_an_upper_bounded_column_at_its_upper_bound(basis):
    # a start need not list the slack of r as resting at its upper bound: its
    # only finite bound is the upper one, so it rests and prices there
    lp = _above_a_floor_lp()
    lp.start = (basis, ())
    sol = solve(lp)
    assert sol.status == "optimal" and sol.objective_value == 3.0
    assert verify_kkt(lp, sol).within(1e-9)


def test_a_rebuilt_solution_rests_an_upper_bounded_column_either_way():
    lp = _above_a_floor_lp()
    listed = simplex.solution_from_basis(lp, ("x", "slack:cap"), ("slack:r",))
    assert simplex.solution_from_basis(lp, ("x", "slack:cap"), ()) == listed
    assert listed.nonbasic_at_upper == ("slack:r",)


def hour_programs(source):
    """``paper-3bus`` seed 7's pass-2 programs at cap 70 in one line-limit case,
    or both passes' programs of ``seeded_mesh(10, 1)``; none has a start."""
    if source == "mesh":
        net, hours, cap = seeded_mesh(10, 1)
        programs = [build_opf(valid_hour(net, data, caps)) for caps in ((), (cap,)) for data in hours]
    else:
        scenario = generate_scenario(preset_spec("paper-3bus", case=source, seed=7))
        programs = [build_opf(valid_hour(scenario.network, data, (PriceCap(3, 70.0),)))
                    for data in scenario.hours]
    for lp in programs:
        lp.start = None  # a cold solve, not build_opf's crash start
    return programs


@pytest.mark.parametrize("source", ["infinite", "finite", "mesh"])
def test_start_at_the_optimum_reports_its_basis_without_a_pivot(monkeypatch, source):
    # every solve reports values solved afresh with its final basis; one started
    # at its optimum pivots never and reports its start's values, factoring its
    # basis once to start and twice more for those fresh solves
    warm_solves = 0
    calls = []
    for name in ("_inverse", "_solve", "_extract"):
        original = getattr(simplex, name)
        monkeypatch.setattr(simplex, name,
                            lambda *a, name=name, original=original: calls.append(name) or original(*a))
    for lp in hour_programs(source):
        cold = solve(lp)
        assert cold.iterations > 1, lp.name
        rebuilt = simplex.solution_from_basis(lp, cold.basis, cold.nonbasic_at_upper)
        assert cold == dataclasses.replace(rebuilt, iterations=cold.iterations), lp.name
        if cold.degenerate:  # the start would fall back to the slack basis
            continue
        lp.start = (cold.basis, cold.nonbasic_at_upper)
        calls.clear()
        warm = solve(lp)
        assert warm.iterations == 1, lp.name  # one pricing step
        assert calls == ["_inverse", "_extract", "_solve", "_solve"], lp.name
        assert warm == dataclasses.replace(rebuilt, iterations=1), lp.name
        warm_solves += 1
    assert warm_solves >= 20


def recorded_solves(monkeypatch) -> list:
    """The (program, solution) pairs of every solve from here on."""
    pairs, original = [], simplex.solve_program
    monkeypatch.setattr(simplex, "solve_program",
                        lambda lp: pairs.append((lp, original(lp))) or pairs[-1][1])
    return pairs


@pytest.mark.parametrize("study", ["paper-3bus", "mesh", "sweep"])
def test_readout_equals_a_fresh_rest_of_its_basis(monkeypatch, study):
    # each solve keeps its resting values current from its start; its readout
    # equals one that rests every nonbasic column afresh from the final basis
    pairs = recorded_solves(monkeypatch)
    if study == "paper-3bus":
        for seed in (1, 7, 42):
            for case in ("infinite", "finite"):
                scenario = generate_scenario(preset_spec("paper-3bus", case=case, seed=seed))
                run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
    elif study == "mesh":
        run_hedge(*seeded_mesh(30, 1))
    else:  # pass 2 at every cap where a sweep solves it
        scenario = generate_scenario(preset_spec("paper-3bus", seed=1))
        sweep_pi_des(scenario.network, scenario.hours, 3, [float(pi) for pi in range(60, 81)],
                     {"infinite": None, "finite": {(2, 3): FINITE_LIMIT_MW}})
    optima = [(lp, sol) for lp, sol in pairs if sol.status == "optimal"]
    assert len(optima) >= 36
    for lp, sol in optima:
        rebuilt = simplex.solution_from_basis(lp, sol.basis, sol.nonbasic_at_upper)
        assert rebuilt == dataclasses.replace(sol, iterations=0), lp.name


def test_artificial_swapped_out_after_phase_1_rests_at_zero():
    # both columns flip to their upper bound in phase 1, which leaves the
    # artificial basic at 1e-10, within FEAS_TOL; x takes its place, and the
    # artificial's 1e-10 must not reach the readout
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, 0.5, objective=1.0)
    lp.add_column("y", 0.0, 0.5, objective=2.0)
    lp.add_row("sum", {"x": 1.0, "y": 1.0}, "=", 1.0 + 1e-10)
    sol = solve(lp)
    assert (sol.basis, sol.nonbasic_at_upper) == (("x",), ("y",))
    rebuilt = simplex.solution_from_basis(lp, sol.basis, sol.nonbasic_at_upper)
    assert sol == dataclasses.replace(rebuilt, iterations=sol.iterations)
    assert sol.primal["x"] == 0.5 + 1e-10


def test_shared_layout_slack_bounds_match_each_programs_own():
    # every hour of a pass shares the layout its grid built from the first
    scenario = generate_scenario(preset_spec("paper-3bus", case="finite", seed=7))
    programs = []
    for net, hours, cap in ((scenario.network, scenario.hours, PriceCap(3, 70.0)),
                            seeded_mesh(30, 1)):
        grid = Grid(net)
        programs += [build_opf(hour) for caps in ((), (cap,)) for hour in grid.hours(hours, caps)]
    assert len({id(lp.arrays[0]) for lp in programs}) < len(programs) / 10
    for lp in programs:
        shared = simplex._State(lp, simplex.program_arrays(lp))
        lp.rows  # from here on a solve compiles the program's dicts
        own = simplex._State(lp, simplex.program_arrays(lp))
        for name in ("lo", "up", "c_ext", "b"):
            assert getattr(shared, name).tobytes() == getattr(own, name).tobytes(), (lp.name, name)
    lp = LinearProgram("minimize")
    lp.add_column("x", 0.0, 1.0, objective=1.0)
    for relation in ("<=", ">=", "="):
        lp.add_row(relation, {"x": 1.0}, relation, 0.5)
    st = simplex._State(lp, simplex.program_arrays(lp))
    assert st.lo.tolist() == [0.0, 0.0, -INF, 0.0]
    assert st.up.tolist() == [1.0, INF, 0.0, 0.0]


def test_start_is_not_part_of_the_program():
    lp = ed_lp(a=50.0, b=90.0)
    text, dual_text = to_lp_format(lp), to_lp_format(dual_program(lp))
    lp.start = (("nope",), ())
    assert lp.validate() == []
    assert to_lp_format(lp) == text
    assert to_lp_format(dual_program(lp)) == dual_text


# ---------------------------------------------------------------------------
# KKT verifier

def test_kkt_clean_on_optimal_solves():
    programs = [simple_cap_lp(), ed_lp(), ed_lp(a=50.0, b=90.0, p_min=0.2)]
    for lp in programs:
        sol = solve(lp)
        report = verify_kkt(lp, sol)
        assert report.within(1e-6), report


def test_kkt_detects_primal_perturbation():
    lp = ed_lp(a=50.0, b=90.0)
    sol = solve(lp)
    bad_primal = dict(sol.primal)
    bad_primal["p_g"] += 1e-2
    bad = dataclasses.replace(sol, primal=bad_primal)
    report = verify_kkt(lp, bad)
    assert max(report.stationarity, report.primal_feasibility) > 1e-3


def test_kkt_flipped_dual_sign():
    lp = simple_cap_lp()
    sol = solve(lp)
    flipped = dataclasses.replace(sol, duals={"cap": -sol.duals["cap"]})
    report = verify_kkt(lp, flipped)
    assert report.dual_feasibility == pytest.approx(2 * abs(sol.duals["cap"]), abs=1e-12)


def test_kkt_requires_optimal_status():
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, INF, objective=1.0)
    sol = solve(lp)
    with pytest.raises(ValueError):
        verify_kkt(lp, sol)


# ---------------------------------------------------------------------------
# Randomized properties (seeded loops; unique draws per case index)

def random_program(rng: random.Random, sense: str) -> LinearProgram:
    """Feasible bounded LP anchored at a random interior point.

    Equality rows are kept below the column count so the dual polyhedron has
    vertices (otherwise the dual enumeration oracle has nothing to find).
    """
    n = rng.randint(2, 4)
    lp = LinearProgram(sense)
    anchor = []
    for j in range(n):
        upper = rng.uniform(0.5, 3.0)
        lp.add_column(f"x{j}", 0.0, upper, objective=rng.uniform(-5.0, 5.0))
        anchor.append(rng.uniform(0.0, upper))
    equalities = 0
    for i in range(rng.randint(1, 4)):
        coeffs = {f"x{j}": rng.uniform(-2.0, 2.0) for j in range(n)}
        lhs_at_anchor = sum(coeffs[f"x{j}"] * anchor[j] for j in range(n))
        rel = rng.choice(["<=", ">=", "="])
        if rel == "=" and equalities >= n - 1:
            rel = rng.choice(["<=", ">="])
        if rel == "<=":
            rhs = lhs_at_anchor + rng.uniform(0.1, 2.0)
        elif rel == ">=":
            rhs = lhs_at_anchor - rng.uniform(0.1, 2.0)
        else:
            equalities += 1
            rhs = lhs_at_anchor
        lp.add_row(f"r{i}", coeffs, rel, rhs)
    return lp


def test_strong_duality_random_programs():
    for case in range(60):
        rng = random.Random(9000 + case)
        lp = random_program(rng, "maximize" if case % 2 == 0 else "minimize")
        primal = solve(lp)
        assert primal.status == "optimal", f"case {case}: {primal.status}"
        dual_sol = solve(dual_program(lp))
        assert dual_sol.status == "optimal", f"case {case} dual: {dual_sol.status}"
        gap = abs(primal.objective_value - dual_sol.objective_value)
        assert gap <= 1e-6 * (1 + abs(primal.objective_value)), f"case {case}: gap {gap}"
        assert verify_kkt(lp, primal).within(1e-6), f"case {case}"


def test_duals_match_brute_force_dual_enumeration():
    """Solver duals equal the enumerated optimum of the explicit dual program."""
    compared = 0
    for case in range(40):
        rng = random.Random(3100 + case)
        lp = random_program(rng, "maximize")
        sol = solve(lp)
        assert sol.status == "optimal"

        dual = dual_program(lp)
        dual_obj, vertices = enumerate_optima(dual)
        assert dual_obj is not None, f"case {case}: dual enumeration found nothing"
        assert dual_obj == pytest.approx(sol.objective_value, abs=1e-6), f"case {case}"

        row_duals = [{r: v[f"y:{r}"] for r in lp.rows} for v in vertices]
        unique = all(
            all(abs(rd[r] - row_duals[0][r]) <= 1e-6 for r in lp.rows)
            for rd in row_duals
        )
        if not unique:
            continue  # degenerate primal: several valid dual vectors, skip
        compared += 1
        for r in lp.rows:
            assert sol.duals[r] == pytest.approx(row_duals[0][r], abs=1e-6), \
                f"case {case}, row {r}"
    assert compared >= 25, f"too few unique-dual cases to be meaningful: {compared}"


def test_solver_optimum_matches_vertex_enumeration():
    for case in range(40):
        rng = random.Random(5200 + case)
        lp = random_program(rng, "maximize")
        sol = solve(lp)
        oracle_obj, _ = brute_force_optimum(lp)
        assert sol.objective_value == pytest.approx(oracle_obj, abs=1e-7), f"case {case}"


def test_row_dual_matches_finite_difference():
    lp = ed_lp(a=50.0, b=90.0, p_min=0.2, p_max=1.0)
    sol = solve(lp)
    fd = oracle_row_dual(lp, "balance")
    assert sol.duals["balance"] == pytest.approx(fd, abs=1e-6)


# ---------------------------------------------------------------------------
# Text dump

def test_lp_format_golden():
    lp = ed_lp()
    text = to_lp_format(lp)
    assert text == (
        "\\ lp\n"
        "Maximize\n"
        " obj: - 80 p_g + 75 p_l\n"
        "Subject To\n"
        " balance: 1 p_g - 1 p_l = 0\n"
        "Bounds\n"
        " 0 <= p_g <= +inf\n"
        " 0 <= p_l <= 1\n"
        "End\n"
    )


def test_lp_format_twelve_significant_digits():
    lp = LinearProgram("minimize")
    lp.add_column("x", 0.0, 1.0, objective=1.0 / 3.0)
    lp.add_row("r", {"x": 2.0 / 3.0}, ">=", 0.1)
    text = to_lp_format(lp)
    assert "0.333333333333 x" in text
    assert "0.666666666667 x" in text


def test_lp_format_row_without_columns():
    lp = LinearProgram()
    lp.add_row("r", {}, "<=", 1.0)
    assert to_lp_format(lp) == "\\ lp\nMaximize\n obj: 0\nSubject To\n r: 0 <= 1\nBounds\nEnd\n"
