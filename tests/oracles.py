"""Brute-force LP oracles used to cross-check the solver.

Everything here is deliberately independent of the simplex: optima come from
dense enumeration of active-set combinations (equalities always active, plus
every size-completing subset of inequality rows and finite bounds), and duals
come from central finite differences of the enumerated optimum with respect to
a row's right-hand side.

``valid_hour`` is the one way a test builds a single OPF hour.
"""

from __future__ import annotations

import itertools

import numpy as np

from flexhedge.lp import INF, LinearProgram
from flexhedge.opf import Grid, ValidHour

FEAS_CHECK_TOL = 1e-7
OPT_TIE_TOL = 1e-7


def valid_hour(net, data, caps=()) -> ValidHour:
    """``data`` with ``caps`` over ``net`` compiled on its own, checked."""
    return Grid(net).hours((data,), caps)[0]


def _constraint_table(lp: LinearProgram):
    names = list(lp.columns)
    index = {n: j for j, n in enumerate(names)}
    n = len(names)

    equalities = []   # (vector, rhs)
    inequalities = []  # (vector, rhs, relation)
    for row in lp.rows.values():
        vec = np.zeros(n)
        for cname, coef in row.coeffs.items():
            vec[index[cname]] += coef
        if row.relation == "=":
            equalities.append((vec, row.rhs))
        else:
            inequalities.append((vec, row.rhs, row.relation))
    for j, cname in enumerate(names):
        col = lp.columns[cname]
        vec = np.zeros(n)
        vec[j] = 1.0
        if col.lower > -INF:
            inequalities.append((vec.copy(), col.lower, ">="))
        if col.upper < INF:
            inequalities.append((vec.copy(), col.upper, "<="))
    return names, equalities, inequalities


def _feasible(x, equalities, inequalities) -> bool:
    for vec, rhs in equalities:
        if abs(vec @ x - rhs) > FEAS_CHECK_TOL:
            return False
    for vec, rhs, rel in inequalities:
        ax = vec @ x
        if rel == "<=" and ax > rhs + FEAS_CHECK_TOL:
            return False
        if rel == ">=" and ax < rhs - FEAS_CHECK_TOL:
            return False
    return True


def enumerate_optima(lp: LinearProgram):
    """All optimal vertices of ``lp`` by active-set enumeration.

    Returns ``(objective, [x dict per optimal vertex])``; objective includes
    the program's constant term.  Returns ``(None, [])`` when no feasible
    vertex exists.  Only usable on programs whose optimum is attained at a
    vertex (bounded, no free line), which holds for every program tested here.
    """
    names, equalities, inequalities = _constraint_table(lp)
    n = len(names)
    c = np.array([lp.columns[name].objective for name in names])
    maximizing = lp.sense == "maximize"

    n_eq = len(equalities)
    if n_eq > n:
        base = equalities[:n]
        extra = equalities[n:]
    else:
        base, extra = equalities, []

    best = None
    vertices: list[np.ndarray] = []
    need = n - min(n_eq, n)
    for combo in itertools.combinations(range(len(inequalities)), need):
        mat = np.array([vec for vec, _ in base] +
                       [inequalities[k][0] for k in combo])
        rhs = np.array([r for _, r in base] +
                       [inequalities[k][1] for k in combo])
        if mat.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        if extra and any(abs(vec @ x - r) > FEAS_CHECK_TOL for vec, r in extra):
            continue
        if not _feasible(x, equalities, inequalities):
            continue
        value = float(c @ x)
        better = best is None or (value > best + OPT_TIE_TOL if maximizing
                                  else value < best - OPT_TIE_TOL)
        if better:
            best = value
            vertices = [x]
        elif abs(value - best) <= OPT_TIE_TOL:
            if not any(np.allclose(x, v, atol=1e-8) for v in vertices):
                vertices.append(x)

    if best is None:
        return None, []
    objective = best + lp.constant
    return objective, [dict(zip(names, map(float, v))) for v in vertices]


def brute_force_optimum(lp: LinearProgram):
    """Best objective and one optimal vertex (the enumeration's first)."""
    objective, vertices = enumerate_optima(lp)
    if objective is None:
        return None, None
    return objective, vertices[0]


def oracle_row_dual(lp: LinearProgram, row_name: str, eps: float = 1e-5) -> float:
    """Raw dual of a row via central differencing of the enumerated optimum."""
    values = []
    original = lp.rows[row_name].rhs
    for delta in (+eps, -eps):
        lp.rows[row_name].rhs = original + delta
        objective, _ = enumerate_optima(lp)
        lp.rows[row_name].rhs = original
        if objective is None:
            raise ValueError(f"perturbed program infeasible around {row_name}")
        values.append(objective)
    return (values[0] - values[1]) / (2 * eps)
