"""Acceptance gate: every shipping criterion at its pinned tolerance.

Each criterion is a standalone function returning a human-readable summary;
its test wrapper asserts and prints one ``criterion N: PASS`` line (visible
with ``pytest -s``).  The KKT audit criterion re-runs the numeric criteria
with the solver wrapped so every optimal solve it performed is re-verified
from program and solution values alone.
"""

import contextlib
import random
import time

import pytest

from flexhedge import simplex
from flexhedge.cli import main
from flexhedge.economic_dispatch import build_ed_dual, build_ed_primal, solve_ed_chain
from flexhedge.hedging import format_eur, run_hedge, sweep_pi_des
from flexhedge.lp import solve, verify_kkt
from flexhedge.model import GenOffer, HourlyMarketData, LoadUtility, PriceCap
from flexhedge.opf import build_opf, solve_opf_hour, solve_opf_series
from flexhedge.scenario import ScenarioSpec, apply_line_limits, build_3bus_network, \
    generate_scenario

from oracles import brute_force_optimum, oracle_row_dual
from test_economic_dispatch import random_instance
from test_opf import random_opf_input

ARTIFACTS = ["hedge_report.csv", "hedge_report.json", "dispatch_unconstrained.csv",
             "dispatch_hedged.csv", "trace.txt"]


@contextlib.contextmanager
def solver_audit():
    """Record every (program, solution) pair the simplex produces."""
    captured = []
    original = simplex.solve_program

    def recording(lp):
        sol = original(lp)
        if sol.status == "optimal":
            captured.append((lp, sol))
        return sol

    simplex.solve_program = recording
    try:
        yield captured
    finally:
        simplex.solve_program = original


def firm_hour(hour, a_trans, a_dist=29.0, dist_cap=0.85, load=1.0):
    return HourlyMarketData(
        hour,
        offers=[GenOffer(1, a_trans, 0.0, 5.0), GenOffer(2, a_dist, 0.0, dist_cap)],
        utilities=[LoadUtility(3, 60.0, 0.0, load, load)],
    )


# ---------------------------------------------------------------------------
# Criterion implementations

def criterion_1_strong_duality():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        inst = random_instance(random.Random(10_000 + seed), with_cap=False)
        primal = solve(build_ed_primal(inst))
        dual = solve(build_ed_dual(inst))
        assert primal.status == "optimal" and dual.status == "optimal", f"seed {seed}"
        gap = abs(primal.objective_value - dual.objective_value)
        bound = 1e-6 * (1 + abs(primal.objective_value))
        assert gap <= bound, f"seed {seed}: gap {gap} > {bound}"
        worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    return f"200 instances, worst gap {worst:.2e}, {elapsed:.2f}s"


def criterion_2_dual_flex_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        inst = random_instance(random.Random(20_000 + seed), with_cap=True)
        chain = solve_ed_chain(inst)
        assert chain.gap_dual_vs_flex <= 1e-6, \
            f"seed {seed}: gap {chain.gap_dual_vs_flex}"
        assert chain.result.lmp_eur_mwh <= inst.cap + 1e-6, \
            f"seed {seed}: price {chain.result.lmp_eur_mwh} above cap {inst.cap}"
        worst = max(worst, chain.gap_dual_vs_flex)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    return f"200 capped instances, worst gap {worst:.2e}, {elapsed:.2f}s"


def criterion_3_revenue_import_hour():
    series = [firm_hour(18, a_trans=76.9, dist_cap=0.67, load=1.0)]
    run = run_hedge(build_3bus_network("infinite"), series, PriceCap(3, 70.0))
    hour = run.report.hours[0]
    assert hour.lambda_unconstrained - hour.lambda_hedged == pytest.approx(6.9, abs=1e-9)
    assert hour.p_flexreq_mw == pytest.approx(0.33, abs=1e-9)
    assert abs(hour.revenue_eur - 2.277) <= 1e-12, hour.revenue_eur
    assert format_eur(hour.revenue_eur) == "2.28"
    return f"6.9 EUR/MWh x 0.33 MW -> {hour.revenue_eur!r} EUR, displayed 2.28"


def criterion_4_revenue_congested_hour():
    series = [firm_hour(17, a_trans=77.07, a_dist=29.0, load=1.2)]
    run = run_hedge(build_3bus_network("finite"), series, PriceCap(3, 70.0))
    hour = run.report.hours[0]
    assert hour.lambda_unconstrained == pytest.approx(125.14, abs=1e-9)
    assert hour.p_flexreq_mw == pytest.approx(0.35, abs=1e-9)
    assert abs(hour.revenue_eur - 19.299) <= 1e-12, hour.revenue_eur
    assert format_eur(hour.revenue_eur) == "19.30"
    return f"55.14 EUR/MWh x 0.35 MW -> {hour.revenue_eur!r} EUR, displayed 19.30"


def criterion_5_uniform_pricing_uncongested():
    worst = 0.0
    for seed in range(20):
        scenario = generate_scenario(ScenarioSpec(seed=seed, line_limit_case="infinite"))
        results = solve_opf_series(scenario.network, list(scenario.hours))
        for res in results:
            assert res is not None
            prices = list(res.lmp_eur_mwh.values())
            spread = max(prices) - min(prices)
            assert spread <= 1e-6, f"seed {seed} hour {res.hour}: spread {spread}"
            worst = max(worst, spread)
    return f"20 seeds x 24 hours, worst LMP spread {worst:.2e}"


def criterion_6_congestion_divergence():
    scenario = generate_scenario(ScenarioSpec(seed=7, line_limit_case="finite"))

    # precondition: peak flow would exceed the 0.6 MW limit if it were loose
    loose = apply_line_limits(scenario.network, {(2, 3): 100.0})
    free_results = solve_opf_series(loose, list(scenario.hours))
    peak_flow = max(abs(r.flow_mw[(2, 3)]) for r in free_results)
    assert peak_flow > 0.6, f"peak unconstrained flow {peak_flow} never exceeds limit"

    results = solve_opf_series(scenario.network, list(scenario.hours))
    diverged = set()
    positive_dual = set()
    for res in results:
        if res.lmp_eur_mwh[3] - res.lmp_eur_mwh[2] > 1.0:
            diverged.add(res.hour)
        if res.congestion_dual_eur_mwh[(2, 3)] > 1e-9:
            positive_dual.add(res.hour)
    assert diverged, "no hour diverged"
    assert diverged == positive_dual, (diverged, positive_dual)
    return f"{len(diverged)} congested hours {sorted(diverged)}, dual > 0 exactly there"


def criterion_7_cap_enforcement_end_to_end():
    summaries = []
    for case in ("infinite", "finite"):
        scenario = generate_scenario(ScenarioSpec(seed=7, line_limit_case=case))
        run = run_hedge(scenario.network, scenario.hours, PriceCap(3, 70.0))
        for hour in run.report.hours:
            assert hour.included, f"{case} hour {hour.hour} infeasible"
            assert hour.lambda_hedged <= 70.0 + 1e-6, \
                f"{case} hour {hour.hour}: hedged {hour.lambda_hedged}"
            should_activate = hour.lambda_unconstrained > 70.0 + 1e-6
            did_activate = hour.p_flexreq_mw > 1e-9
            assert should_activate == did_activate, \
                f"{case} hour {hour.hour}: active {did_activate}, expected {should_activate}"
        summaries.append(f"{case}: {run.report.hours_active} active hours")
    return "; ".join(summaries)


def criterion_8_cap_sweep_pattern():
    scenario = generate_scenario(ScenarioSpec(seed=7, line_limit_case="infinite"))
    result = sweep_pi_des(
        scenario.network, scenario.hours, 3, [68.0, 70.0, 72.0],
        scenarios={"uncongested": None, "congested": {(2, 3): 0.6}},
    )
    by_label = {}
    for row in result.rows:
        by_label.setdefault(row.scenario, []).append(row.total_revenue_eur)
    for label, revenues in by_label.items():
        for earlier, later in zip(revenues, revenues[1:]):
            assert later <= earlier + 1e-9, f"{label}: {revenues} not non-increasing"
    for pi_idx in range(3):
        assert by_label["congested"][pi_idx] >= by_label["uncongested"][pi_idx] - 1e-9
    assert result.monotonicity_warnings == ()
    cells = {label: [format_eur(v) for v in revenues]
             for label, revenues in by_label.items()}
    return f"caps 68/70/72 -> {cells}"


def criterion_9_opf_oracle_equivalence():
    started = time.perf_counter()
    lambda_checked = 0
    for case in range(50):
        rng = random.Random(90_000 + case)
        inp = random_opf_input(rng)
        res = solve_opf_hour(inp)
        oracle_obj, _ = brute_force_optimum(build_opf(inp))
        assert oracle_obj is not None, f"case {case}: enumeration failed"
        assert abs(res.objective_eur - oracle_obj) <= 1e-6, \
            f"case {case}: {res.objective_eur} vs oracle {oracle_obj}"
        if res.degenerate:
            continue
        for bus in inp.grid.net.buses:
            fd = oracle_row_dual(build_opf(inp), f"balance_{bus.id}")
            assert abs(res.lmp_eur_mwh[bus.id] - (-fd)) <= 1e-6, \
                f"case {case} bus {bus.id}: {res.lmp_eur_mwh[bus.id]} vs {-fd}"
            lambda_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    assert lambda_checked >= 20, f"only {lambda_checked} non-degenerate price checks"
    return f"50 networks, {lambda_checked} price checks, {elapsed:.1f}s"


NUMERIC_CRITERIA = [
    criterion_1_strong_duality,
    criterion_2_dual_flex_equivalence,
    criterion_3_revenue_import_hour,
    criterion_4_revenue_congested_hour,
    criterion_5_uniform_pricing_uncongested,
    criterion_6_congestion_divergence,
    criterion_7_cap_enforcement_end_to_end,
    criterion_8_cap_sweep_pattern,
    criterion_9_opf_oracle_equivalence,
]


def criterion_10_kkt_audit():
    with solver_audit() as captured:
        for criterion in NUMERIC_CRITERIA:
            criterion()
    assert captured, "audit captured no solves"
    worst = 0.0
    for lp, sol in captured:
        report = verify_kkt(lp, sol)
        assert report.within(1e-6), f"{lp.name}: {report}"
        worst = max(worst, report.max_residual)
    return f"{len(captured)} optimal solves audited, worst residual {worst:.2e}"


def criterion_11_determinism(tmp_path):
    args = ["run", "--preset", "paper-3bus", "--case", "finite",
            "--pi-des", "70", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "first")]) == 0
    assert main(args + ["--out", str(tmp_path / "second")]) == 0
    for name in ARTIFACTS:
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    return f"{len(ARTIFACTS)} artifacts byte-identical across reruns"


# ---------------------------------------------------------------------------
# Test wrappers (one pass/fail line each; run with -s to see summaries)

def test_criterion_01_strong_duality():
    print(f"\ncriterion 1: PASS - {criterion_1_strong_duality()}")


def test_criterion_02_dual_flex_equivalence():
    print(f"\ncriterion 2: PASS - {criterion_2_dual_flex_equivalence()}")


def test_criterion_03_revenue_import_hour():
    print(f"\ncriterion 3: PASS - {criterion_3_revenue_import_hour()}")


def test_criterion_04_revenue_congested_hour():
    print(f"\ncriterion 4: PASS - {criterion_4_revenue_congested_hour()}")


def test_criterion_05_uniform_pricing():
    print(f"\ncriterion 5: PASS - {criterion_5_uniform_pricing_uncongested()}")


def test_criterion_06_congestion_divergence():
    print(f"\ncriterion 6: PASS - {criterion_6_congestion_divergence()}")


def test_criterion_07_cap_enforcement():
    print(f"\ncriterion 7: PASS - {criterion_7_cap_enforcement_end_to_end()}")


def test_criterion_08_sweep_pattern():
    print(f"\ncriterion 8: PASS - {criterion_8_cap_sweep_pattern()}")


def test_criterion_09_oracle_equivalence():
    print(f"\ncriterion 9: PASS - {criterion_9_opf_oracle_equivalence()}")


def test_criterion_10_kkt_audit():
    print(f"\ncriterion 10: PASS - {criterion_10_kkt_audit()}")


def test_criterion_11_determinism(tmp_path):
    print(f"\ncriterion 11: PASS - {criterion_11_determinism(tmp_path)}")
