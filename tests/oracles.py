"""Brute-force LP oracles used to cross-check the solver.

Everything here is deliberately independent of the simplex: optima come from
dense enumeration of active-set combinations (equalities always active, plus
every size-completing subset of inequality rows and finite bounds), and duals
come from central finite differences of the enumerated optimum with respect to
a row's right-hand side.

``valid_hour`` is the one way a test builds a single OPF hour, and
``reference_opf`` builds its program the plain way, to compare with
``build_opf``.
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


def reference_opf(hour: ValidHour) -> LinearProgram:
    """``build_opf(hour)``'s program as a loop of ``add_column``/``add_row``
    calls over names formatted afresh: no compiled row, no layout record."""
    net, data = hour.grid.net, hour.data
    prog = LinearProgram("maximize", name=f"opf_h{data.hour}")
    constant = 0.0
    for bus in net.buses:
        prog.add_column(f"theta_{bus.id}", -INF, INF)
    for offer in data.offers:
        prog.add_column(f"pg_{offer.bus}", 0.0, offer.capacity_mw, objective=-offer.marginal_cost)
        constant -= offer.constant_cost
    for util in data.utilities:
        prog.add_column(f"pl_{util.bus}", util.p_min_mw, util.p_max_mw,
                        objective=util.marginal_utility)
        constant += util.constant_utility
    for cap in hour.caps:
        prog.add_column(f"pflex_{cap.bus}", 0.0, INF, objective=-cap.cap_for_hour(data.hour))

    terms = {bus.id: {} for bus in net.buses}
    for line in net.lines:
        b = 1.0 / line.reactance_pu
        for i, j in ((line.from_bus, line.to_bus), (line.to_bus, line.from_bus)):
            terms[i][f"theta_{i}"] = terms[i].get(f"theta_{i}", 0.0) - b
            terms[i][f"theta_{j}"] = terms[i].get(f"theta_{j}", 0.0) + b
    offer_buses = {offer.bus for offer in data.offers}
    utility_buses = {util.bus for util in data.utilities}
    flex_buses = {cap.bus for cap in hour.caps}
    for bus in net.buses:
        coeffs = {}
        if bus.id in offer_buses:
            coeffs[f"pg_{bus.id}"] = 1.0
        if bus.id in utility_buses:
            coeffs[f"pl_{bus.id}"] = -1.0
        if bus.id in flex_buses:
            coeffs[f"pflex_{bus.id}"] = 1.0
        coeffs.update(terms[bus.id])
        prog.add_row(f"balance_{bus.id}", coeffs, "=", 0.0)
    prog.add_row("angle_ref", {f"theta_{net.slack_bus()}": 1.0}, "=", 0.0)
    for line in net.lines:
        if line.flow_limit_mw != INF:
            b = 1.0 / line.reactance_pu
            coeffs = {f"theta_{line.from_bus}": b, f"theta_{line.to_bus}": -b}
            key = f"{line.from_bus}_{line.to_bus}"
            prog.add_row(f"flow_hi_{key}", coeffs, "<=", line.flow_limit_mw)
            prog.add_row(f"flow_lo_{key}", coeffs, ">=", -line.flow_limit_mw)
    prog.constant = constant
    return prog


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
