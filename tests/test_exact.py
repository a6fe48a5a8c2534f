"""Exact certificates (``exact.certify``) for every solve of a run past the oracle's reach.

Each reported basis, with its nonbasic columns resting where the solution's
``nonbasic_at_upper`` puts them, must be an optimal vertex in rational
arithmetic; the reported floats must lie within rounding of it, and the
1e-9 degeneracy flag must agree with exact degeneracy.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from flexhedge.hedging import run_hedge, sweep_pi_des
from flexhedge.lp import LinearProgram, solve
from flexhedge.model import PriceCap
from flexhedge.scenario import (FINITE_LIMIT_MW, apply_line_limits, build_3bus_network,
                                generate_scenario, preset_spec)

from exact import CertificateError, _solve, certify, certify_run, record_solves
from test_hedging import degenerate_day, tie_hours, two_layout_day
from test_mesh_oracle import seeded_mesh

ROUNDING = 1e-9


def assert_certified(results) -> None:
    assert results
    for lp, sol, cert in results:
        assert cert is not None, f"{lp.name}: {sol.status}"
        assert cert.degenerate == sol.degenerate, lp.name
        assert max(cert.primal_error, cert.dual_error) <= ROUNDING, lp.name
        assert abs(float(cert.objective) - sol.objective_value) <= \
            ROUNDING * (1 + abs(sol.objective_value)), lp.name


@pytest.mark.parametrize("case", ["infinite", "finite"])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_every_solve_of_a_paper_run_is_exactly_optimal(seed, case):
    scenario = generate_scenario(preset_spec("paper-3bus", case=case, seed=seed))
    results = certify_run(scenario.network, scenario.hours, PriceCap(3, 70.0))
    assert len(results) == 38  # 24 pass-1 hours and 14 priced above the cap
    assert_certified(results)


def test_every_solve_of_a_10_bus_mesh_day_is_exactly_optimal():
    results = certify_run(*seeded_mesh(10, 1))
    assert len(results) == 36
    assert_certified(results)


CASES = {"infinite": None, "finite": {(2, 3): FINITE_LIMIT_MW}}


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_every_solve_of_a_paper_sweep_is_exactly_optimal(seed):
    scenario = generate_scenario(preset_spec("paper-3bus", case="infinite", seed=seed))
    results = certify_run(scenario.network, scenario.hours, 3,
                          [float(pi) for pi in range(60, 81)], CASES, study=sweep_pi_des)
    assert len(results) == 87  # each case's 24 pass-1 hours once, and 39 pass-2 solves
    assert_certified(results)


def test_every_solve_over_the_tie_hours_is_exactly_optimal():
    # each hour capped at its own offer cost, where flexibility and that offer
    # tie, and a sweep whose caps land on those ties
    net, series = build_3bus_network("infinite"), tie_hours()
    results = certify_run(net, series, PriceCap(3, tuple(60.0 + h / 2 for h in range(1, 25))))
    assert len(results) == 48
    assert_certified(results)
    results = certify_run(net, series, 3, [60.0 + 0.5 * k for k in range(25)], CASES,
                          study=sweep_pi_des)
    assert len(results) == 190
    assert_certified(results)


def test_every_solve_of_the_degenerate_and_two_layout_days_is_exactly_optimal():
    results = certify_run(*degenerate_day(), PriceCap(3, 70.0))
    assert len(results) == 26  # 24 pass-1 hours, 12 of them exactly degenerate, and 2 capped
    assert sum(cert.degenerate for _, _, cert in results) == 12
    assert_certified(results)
    results = certify_run(*two_layout_day(), PriceCap(3, 70.0))
    assert len(results) == 38
    assert_certified(results)


def test_the_line_limit_day_reports_one_basis_that_is_exactly_infeasible():
    # paper-3bus seed 7, finite, with line 2-3 limited to 0.3 MW: pass 1 ends
    # infeasible in hours 11-22, and hour 10's degenerate pass-1 optimum has
    # pg_2 basic at -5.55e-17 in exact arithmetic, below its lower bound of 0;
    # every other optimal solve certifies
    scenario = generate_scenario(preset_spec("paper-3bus", case="finite", seed=7))
    net = apply_line_limits(scenario.network, {(2, 3): 0.3})
    solves = record_solves(run_hedge, net, scenario.hours, PriceCap(3, 70.0))
    optimal = [(lp, sol) for lp, sol in solves if sol.status == "optimal"]
    assert (len(solves), len(optimal)) == (42, 30)
    lp, sol = optimal[9]
    assert (lp.name, sol.degenerate, sol.iterations) == ("opf_h10", True, 2)
    with pytest.raises(CertificateError, match="'pg_2' = -5.55"):
        certify(lp, sol)
    assert_certified([(lp, sol, certify(lp, sol)) for lp, sol in optimal[:9] + optimal[10:]])


def paper_solve():
    """A pass-2 solve of the paper study with a column resting at its upper bound."""
    scenario = generate_scenario(preset_spec("paper-3bus", case="finite", seed=1))
    results = certify_run(scenario.network, scenario.hours, PriceCap(3, 70.0))
    return next((lp, sol) for lp, sol, _ in results[24:] if sol.nonbasic_at_upper)


def test_the_certificate_refuses_a_column_resting_at_the_wrong_bound():
    lp, sol = paper_solve()
    certify(lp, sol)
    moved = sol.nonbasic_at_upper[0]
    with pytest.raises(CertificateError):
        certify(lp, replace(sol, nonbasic_at_upper=sol.nonbasic_at_upper[1:]))
    lower = next(name for name, col in lp.columns.items() if name not in sol.basis
                 and name != moved and col.lower < col.upper < float("inf"))
    with pytest.raises(CertificateError):
        certify(lp, replace(sol, nonbasic_at_upper=sol.nonbasic_at_upper + (lower,)))


def test_the_certificate_refuses_a_feasible_basis_that_is_not_optimal():
    lp = LinearProgram("maximize")
    lp.add_column("x", 0.0, 4.0, objective=1.0)
    lp.add_column("y", 0.0, 3.0, objective=2.0)
    lp.add_row("r", {"x": 1.0, "y": 1.0}, "<=", 5.0)
    sol = solve(lp)
    cert = certify(lp, sol)
    assert (cert.objective, cert.degenerate) == (Fraction(8), False)
    with pytest.raises(CertificateError, match="prices in"):
        certify(lp, replace(sol, basis=("slack:r",), nonbasic_at_upper=()))
    with pytest.raises(CertificateError, match="outside"):
        certify(lp, replace(sol, basis=("slack:r",), nonbasic_at_upper=("x", "y")))


def test_elimination_solves_exactly_and_finds_a_singular_basis():
    # x0 + 2 x1 = 5, 3 x1 + x2 = 7, x0 - x2 = 0: x = (1, 2, 1)
    equations = [({0: Fraction(1), 1: Fraction(2)}, Fraction(5)),
                 ({1: Fraction(3), 2: Fraction(1)}, Fraction(7)),
                 ({0: Fraction(1), 2: Fraction(-1)}, Fraction(0))]
    assert _solve(equations, 3) == [1, 2, 1]
    with pytest.raises(CertificateError, match="singular"):
        _solve([({0: Fraction(1), 1: Fraction(1)}, Fraction(1)),
                ({0: Fraction(2), 1: Fraction(2)}, Fraction(2))], 2)
