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

from flexhedge.lp import LinearProgram, solve
from flexhedge.model import PriceCap
from flexhedge.scenario import generate_scenario, preset_spec

from exact import CertificateError, _solve, certify, certify_run
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
