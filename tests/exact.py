"""Exact optimality certificates for the bases the simplex reports.

Every other check past three buses holds to a tolerance.  ``certify`` holds
none: it reads a program and an optimal ``LpSolution``'s ``basis`` and
``nonbasic_at_upper`` in rational arithmetic (``fractions.Fraction``, which
reads each float exactly), rests every nonbasic column where the report puts
it, solves ``B x_B = b - N x_N`` and ``B^T y = c_B`` by sparse elimination in
Markowitz order, and checks every bound and the sign of every reduced cost
exactly.  A basis that passes is an optimal vertex of the program as its
floats state it, whatever rounding the solver met on its way there.

The basis is read in the report's working form: row ``r`` gains a column
``slack:r`` with coefficient 1 and bounds ``[0, inf)`` for ``<=``,
``(-inf, 0]`` for ``>=`` and ``[0, 0]`` for ``=``, so every row is an
equality; a basic ``artificial:r`` is a unit column fixed at 0.  A nonbasic
column rests at its upper bound if the report names it, else at its lower
bound, or at 0 if it has no finite bound.

Run as a script, it certifies every solve of ``run_hedge`` over one day of a
seeded mesh (``test_mesh_oracle.seeded_mesh(BUSES, 1)``), or, given caps from
FIRST to LAST by STEP, of ``sweep_pi_des`` over them at the mesh's capped bus
BUSES with no line-limit override, and exits 1 at the first solve it cannot
certify:

    PYTHONPATH=src python tests/exact.py BUSES [FIRST LAST STEP]
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from flexhedge import simplex
from flexhedge.hedging import run_hedge, sweep_pi_des

_SLACK_BOUNDS = {"<=": (0.0, math.inf), ">=": (-math.inf, 0.0), "=": (0.0, 0.0)}


class CertificateError(AssertionError):
    """A reported basis is singular, infeasible or not optimal, checked exactly."""


@dataclass(frozen=True)
class Certificate:
    """An exactly optimal basis: its objective, whether a basic column sits
    exactly at a bound, and the largest gap between the reported floats and
    the exact primal values and duals."""
    objective: Fraction
    degenerate: bool
    primal_error: float
    dual_error: float


def _solve(equations: list[tuple[dict[int, Fraction], Fraction]], size: int) -> list[Fraction]:
    """The ``z`` of length ``size`` with ``sum(coef * z[j] for j, coef in
    row.items()) == rhs`` for each ``(row, rhs)`` of ``equations``, by
    elimination in Markowitz order: each step pivots on the entry that least
    fills in, ``(row length - 1) * (column count - 1)``, ties to the lowest
    row and then column."""
    if len(equations) != size:
        raise CertificateError(f"basis of {size} columns for {len(equations)} rows")
    rows = [{j: coef for j, coef in row.items() if coef} for row, _ in equations]
    rhs = [value for _, value in equations]
    holders: dict[int, set[int]] = {j: set() for j in range(size)}
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    active, order = set(range(size)), []
    while active:
        best = None
        for i in sorted(active):
            if not rows[i]:
                raise CertificateError("singular basis")
            for j in rows[i]:
                score = (len(rows[i]) - 1) * (len(holders[j]) - 1)
                if best is None or score < best[0]:
                    best = (score, i, j)
        _, p, q = best
        active.remove(p)
        for j in rows[p]:
            holders[j].discard(p)
        for i in list(holders[q]):
            factor = rows[i][q] / rows[p][q]
            for j, coef in rows[p].items():
                value = rows[i].get(j, 0) - factor * coef
                if value:
                    rows[i][j] = value
                    holders[j].add(i)
                else:
                    rows[i].pop(j, None)
                    holders[j].discard(i)
            rhs[i] -= factor * rhs[p]
        order.append((p, q))
    z: list[Fraction] = [Fraction(0)] * size
    for p, q in reversed(order):  # row p holds q and columns pivoted after it
        z[q] = (rhs[p] - sum(coef * z[j] for j, coef in rows[p].items() if j != q)) / rows[p][q]
    return z


def certify(lp, sol) -> Certificate:
    """Certify that ``sol``'s basis, with its nonbasic columns resting where
    ``sol.nonbasic_at_upper`` puts them, is an optimal vertex of ``lp``, in
    exact arithmetic; raises ``CertificateError`` naming the first failure."""
    if sol.status != "optimal":
        raise ValueError(f"only an optimal solution has a basis to certify, not {sol.status!r}")
    row_names = list(lp.rows)
    to_min = Fraction(-1 if lp.sense == "maximize" else 1)
    # every column of the working form: (lower, upper, minimize-form cost, {row: coefficient})
    cols = {name: (col.lower, col.upper, to_min * Fraction(col.objective), {})
            for name, col in lp.columns.items()}
    for i, row in enumerate(lp.rows.values()):
        for name, coef in row.coeffs.items():
            entries = cols[name][3]
            entries[i] = entries.get(i, 0) + Fraction(coef)
        cols[f"slack:{row.name}"] = (*_SLACK_BOUNDS[row.relation], Fraction(0), {i: Fraction(1)})
    for i, name in enumerate(row_names):
        if f"artificial:{name}" in sol.basis:
            cols[f"artificial:{name}"] = (0.0, 0.0, Fraction(0), {i: Fraction(1)})

    basis, basic, at_upper = list(sol.basis), set(sol.basis), set(sol.nonbasic_at_upper)
    unknown = [name for name in basis + list(sol.nonbasic_at_upper) if name not in cols]
    if unknown or len(basic) != len(basis):
        raise CertificateError(f"basis names unknown or repeated columns: {unknown or basis}")
    if at_upper & basic:
        raise CertificateError(f"basic columns reported at their upper bound: {at_upper & basic}")

    x: dict[str, Fraction] = {}
    for name, (lo, up, _, _) in cols.items():
        if name in basic:
            continue
        rest = up if name in at_upper else lo if lo > -math.inf or up < math.inf else 0.0
        if math.isinf(rest):
            raise CertificateError(f"nonbasic {name!r} rests at an infinite bound")
        x[name] = Fraction(rest)
    rhs = [Fraction(row.rhs) for row in lp.rows.values()]
    for name, value in x.items():
        for i, coef in cols[name][3].items():
            rhs[i] -= coef * value
    x_basic = _solve([({pos: cols[name][3][i] for pos, name in enumerate(basis)
                        if i in cols[name][3]}, rhs[i]) for i in range(len(rhs))], len(basis))
    x.update(zip(basis, x_basic))
    y = _solve([(cols[name][3], cols[name][2]) for name in basis], len(row_names))

    degenerate = False
    for name, (lo, up, _, _) in cols.items():
        if (lo > -math.inf and x[name] < Fraction(lo)) or (up < math.inf and x[name] > Fraction(up)):
            raise CertificateError(f"{name!r} = {float(x[name])!r} outside [{lo!r}, {up!r}]")
        if name in basic and not name.startswith("artificial:"):
            degenerate = degenerate or any(x[name] == Fraction(bound) for bound in (lo, up)
                                           if math.isfinite(bound))
    for name, (lo, up, cost, entries) in cols.items():
        if name in basic or lo == up:
            continue
        d = cost - sum(y[i] * coef for i, coef in entries.items())
        wrong = d > 0 if name in at_upper else d != 0 if lo == -math.inf else d < 0
        if wrong:
            raise CertificateError(f"nonbasic {name!r} prices in: reduced cost {float(d)!r}")

    objective = Fraction(lp.constant) + sum(
        Fraction(col.objective) * x[name] for name, col in lp.columns.items())
    return Certificate(
        objective=objective,
        degenerate=degenerate,
        primal_error=max((abs(float(Fraction(sol.primal[name]) - x[name])) for name in lp.columns),
                         default=0.0),
        dual_error=max((abs(float(Fraction(sol.duals[name]) - to_min * y[i]))
                        for i, name in enumerate(row_names)), default=0.0),
    )


def record_solves(study, *args) -> list[tuple]:
    """``(program, solution)`` for each solve that ``study(*args)`` makes by
    ``simplex.solve_program``, as every run and sweep solves, in solve order."""
    solved, solve = [], simplex.solve_program

    def recording(lp):
        solved.append((lp, solve(lp)))
        return solved[-1][1]

    simplex.solve_program = recording
    try:
        study(*args)
    finally:
        simplex.solve_program = solve
    return solved


def certify_run(*args, study=run_hedge) -> list[tuple]:
    """``(program, solution, certificate)`` for each solve of ``study(*args)``,
    by default ``run_hedge(net, series, cap)``, in solve order; the
    certificate is None for a solve that is not optimal."""
    return [(lp, sol, certify(lp, sol) if sol.status == "optimal" else None)
            for lp, sol in record_solves(study, *args)]


def main(argv: list[str]) -> int:
    from test_mesh_oracle import seeded_mesh

    if len(argv) not in (1, 4) or not argv[0].isdigit():
        print(__doc__.rstrip().rsplit("\n", 1)[-1].strip(), file=sys.stderr)
        return 2
    buses = int(argv[0])
    net, series, cap = seeded_mesh(buses, 1)
    study, args, name = run_hedge, (net, series, cap), f"seeded_mesh({buses}, 1)"
    if len(argv) == 4:
        first, last, step = map(float, argv[1:])
        caps = [first + step * k for k in range(round((last - first) / step) + 1)]
        study, args = sweep_pi_des, (net, series, cap.bus, caps, {"infinite": None})
        name = f"a {len(caps)}-cap sweep of {name}"
    start = time.perf_counter()
    try:
        results = certify_run(*args, study=study)
    except CertificateError as exc:
        print(f"{name}: not certified: {exc}", file=sys.stderr)
        return 1
    certified = [cert for _, _, cert in results if cert is not None]
    print(f"{name}: {len(certified)} of {len(results)} "
          f"solves certified optimal ({len(results) - len(certified)} not optimal), "
          f"{sum(c.degenerate for c in certified)} exactly degenerate; largest primal "
          f"error {max(c.primal_error for c in certified):.3g}, dual error "
          f"{max(c.dual_error for c in certified):.3g}; {time.perf_counter() - start:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
