"""Correctness checks, run outside the timed region.

``capture`` records every (program, solution) pair the simplex returns and
every hedge run, the way the acceptance suite's solver audit does.  Each check
is one operation: ``Checks.record`` counts it and keeps a message for each
failure.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from flexhedge import hedging, lp, simplex

from spans import rebind, restore

KKT_TOL = 1e-6
CAP_TOL = 1e-6
ACTIVE_TOL = 1e-9
ORACLE_RTOL = 1e-6


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.kkt_s = 0.0
        self.kkt_max_residual = 0.0

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def solves(self, captured) -> None:
        """Every solve optimal and within the KKT tolerance."""
        for prog, sol in captured:
            if sol.status != "optimal":
                self.record(False, f"{prog.name}: status {sol.status}")
                continue
            start = time.perf_counter()
            report = lp.verify_kkt(prog, sol)
            self.kkt_s += time.perf_counter() - start
            self.kkt_max_residual = max(self.kkt_max_residual, report.max_residual)
            self.record(report.within(KKT_TOL), f"{prog.name}: KKT {report}")

    def cap_rule(self, report, cap) -> int:
        """Hedged price at or below the cap every hour, and flexibility active
        exactly where the unconstrained price exceeds it; returns active hours."""
        active = 0
        for h in report.hours:
            pi = cap.cap_for_hour(h.hour)
            if not h.included:
                self.record(False, f"hour {h.hour}: infeasible")
                continue
            exceeds = h.lambda_unconstrained > pi + CAP_TOL
            flexing = h.p_flexreq_mw > ACTIVE_TOL
            active += flexing
            self.record(h.lambda_hedged <= pi + CAP_TOL and exceeds == flexing,
                        f"hour {h.hour} cap {pi}: unconstrained {h.lambda_unconstrained}, "
                        f"hedged {h.lambda_hedged}, flexibility {h.p_flexreq_mw}")
        return active

    def oracle(self, captured) -> None:
        """Objective agreement with HiGHS through scipy (oracle only)."""
        for prog, sol in captured:
            reference = highs_objective(prog)
            ok = reference is not None and \
                abs(sol.objective_value - reference) <= ORACLE_RTOL * (1 + abs(reference))
            self.record(ok, f"{prog.name}: objective {sol.objective_value} vs HiGHS {reference}")


@contextlib.contextmanager
def capture():
    """Yield lists that fill with (program, solution) pairs and (hedge run, cap) pairs."""
    solves, runs = [], []
    solve_program, run_hedge = simplex.solve_program, hedging.run_hedge

    def recording_solve(prog):
        sol = solve_program(prog)
        solves.append((prog, sol))
        return sol

    def recording_hedge(net, series, cap):
        run = run_hedge(net, series, cap)
        runs.append((run, cap))
        return run

    patched = rebind(solve_program, recording_solve) + rebind(run_hedge, recording_hedge)
    try:
        yield solves, runs
    finally:
        restore(patched)


def unique_programs(captured) -> int:
    """Distinct programs, fingerprinted by their LP-format text."""
    return len({lp.to_lp_format(prog) for prog, _ in captured})


def highs_objective(prog) -> float | None:
    # imported here so that peak_rss_mb, taken before the check pass, excludes scipy
    from scipy.optimize import linprog

    names = list(prog.columns)
    index = {name: j for j, name in enumerate(names)}
    sign = -1.0 if prog.sense == "maximize" else 1.0
    c = np.array([sign * prog.columns[n].objective for n in names])
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for row in prog.rows.values():
        dense = np.zeros(len(names))
        for name, coef in row.coeffs.items():
            dense[index[name]] += coef
        if row.relation == "=":
            a_eq.append(dense)
            b_eq.append(row.rhs)
        elif row.relation == "<=":
            a_ub.append(dense)
            b_ub.append(row.rhs)
        else:
            a_ub.append(-dense)
            b_ub.append(-row.rhs)
    bounds = [(None if col.lower == -lp.INF else col.lower,
               None if col.upper == lp.INF else col.upper)
              for col in prog.columns.values()]
    res = linprog(c, A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
                  A_eq=np.array(a_eq) if a_eq else None, b_eq=b_eq or None,
                  bounds=bounds, method="highs")
    if res.status != 0:
        return None
    return sign * res.fun + prog.constant
