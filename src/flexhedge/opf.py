"""Hourly DC optimal power flow with optional flexibility at capped buses.

The network is encoded through one angle variable per bus: line flow is the
angle difference divided by reactance, every bus gets a balance equality (with
a flexibility column added at each bus given a price cap), the slack angle is
pinned by an explicit reference row, and each bounded line contributes two
one-sided limit rows so congestion shadow prices stay readable per direction.

An hour whose firm load cannot be served under the line limits is infeasible
and is reported as such, a ``None`` in place of its result; the toolkit never
sheds firm load, because a shedding variable would change the prices.

A study compiles its network once into a ``Grid``, the one place an input is
checked: ``Grid.hours`` raises every problem of the network, the caps and the
hours or returns each hour as a ``ValidHour``, the one hour type, which
``build_opf``, ``capped_dual`` and ``solve_opf_hour`` take unchecked.  The
grid compiles, once per study, every name and row an hour needs and, per
column layout (the buses of an hour's offers, utilities and caps), its column
names, balance rows and ``simplex.Layout`` (``Grid.template``): the dense
matrix, names and crash basis, whose inverse the first solve on that basis
computes for every later start on it.  So ``build_opf`` only adds the hour's
columns and copies the compiled rows through ``LinearProgram.add_column``
and ``add_row``, ``solve_opf_hour`` reads each value by a compiled name, and
a solve reads only the hour's right-hand sides, bounds and costs.

``capped_dual`` builds the paper's side of the same hour: the dual of the
program without flexibility, with the price at each capped bus bounded.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, replace

from .lp import INF, LinearProgram, LpSolution, dual_of, dual_program, solve
from .model import (
    HourlyMarketData,
    Network,
    PriceCap,
    validate_market_data,
    validate_network,
    validate_price_cap,
)


@dataclass(frozen=True)
class DispatchResult:
    """One solved hour: dispatch, angles, prices, flows and congestion duals.

    ``basis`` is the optimal ``(basis, nonbasic_at_upper)`` pair, in the form
    ``LinearProgram.start`` takes, so a related hour can start from it."""
    hour: int
    p_g_mw: dict[int, float]
    p_l_mw: dict[int, float]
    theta_rad: dict[int, float]
    lmp_eur_mwh: dict[int, float]
    flow_mw: dict[tuple[int, int], float]
    congestion_dual_eur_mwh: dict[tuple[int, int], float]
    p_flexreq_mw: dict[int, float]
    objective_eur: float
    basis: tuple[tuple[str, ...], tuple[str, ...]]
    degenerate: bool = False


def _column(prefix: str, bus: int) -> str:
    return f"{prefix}_{bus}"


def price_paid_by_load(sol: LpSolution, balance_row: str) -> float:
    """LMP at a balance row: positive means the load pays.  The package fixes
    the sign here: a balance row reads generation - load = 0 in a maximize
    program, so its raw dual is the welfare change per MW of forced extra
    generation, and the price charged to load is its negation."""
    return -dual_of(sol, balance_row)


class Grid:
    """A network validated and compiled once per study: ``validate_network``'s
    ``problems`` and, if valid, every name and row an hour needs.  Per bus, in
    bus order, its angle column (``theta``), its balance row (``balance``) and
    the angle terms of that row (accumulated in line order); the angle
    reference row; the line-limit rows; and per line a readout record
    (``lines``: key, end buses, reactance and its limit rows' names, or None).
    ``layouts`` holds each column layout's ``_Template`` (``template``)."""

    def __init__(self, net: Network):
        self.net, self.problems = net, validate_network(net)
        self.layouts: dict[tuple, _Template] = {}
        if self.problems:
            return
        self.theta = {b.id: _column("theta", b.id) for b in net.buses}
        self.balance = {b.id: f"balance_{b.id}" for b in net.buses}
        self.terms: dict[str, dict[str, float]] = {name: {} for name in self.theta.values()}
        self.limits, self.lines = [], []
        for line in net.lines:
            b = 1.0 / line.reactance_pu
            theta_from, theta_to = self.theta[line.from_bus], self.theta[line.to_bus]
            for theta_i, theta_j in ((theta_from, theta_to), (theta_to, theta_from)):
                coeffs = self.terms[theta_i]
                coeffs[theta_i] = coeffs.get(theta_i, 0.0) - b
                coeffs[theta_j] = coeffs.get(theta_j, 0.0) + b
            rows = None
            if line.flow_limit_mw != INF:
                key = f"{line.from_bus}_{line.to_bus}"
                rows = f"flow_hi_{key}", f"flow_lo_{key}"
                self.limits.append((*rows, {theta_from: b, theta_to: -b}, line.flow_limit_mw))
            self.lines.append((line.key, line.from_bus, line.to_bus, line.reactance_pu, rows))
        self.angle_ref = {self.theta[net.slack_bus()]: 1.0}
        self.slacks = tuple(f"slack:{row}" for hi, lo, _, _ in self.limits for row in (hi, lo))

    def problems_of(self, series, caps=()) -> list[str]:
        """Every problem of the network, of each cap on its own and of each
        hour of ``series``, in that order, each stated once."""
        problems = list(self.problems)
        for cap in caps:
            problems += validate_price_cap(self.net, cap)
        for data in series:
            problems += validate_market_data(self.net, data)
        return list(dict.fromkeys(problems))

    def hours(self, series, caps=()) -> list[ValidHour]:
        """Each hour of ``series`` with ``caps`` applied together, checked;
        raises ValueError listing every problem (``problems_of``, then each
        bus with more than one cap)."""
        series, caps = tuple(series), tuple(caps)
        problems = self.problems_of(series, caps) + [
            f"more than one price cap at bus {bus}"
            for bus, count in Counter(cap.bus for cap in caps).items() if count > 1]
        if problems:
            raise ValueError("; ".join(problems))
        return [ValidHour(self, data, caps) for data in series]

    def template(self, hour: ValidHour) -> _Template:
        """The ``_Template`` of ``hour``'s column layout, set by the buses of
        its offers, utilities and caps; compiled on first use."""
        key = (tuple(offer.bus for offer in hour.data.offers),
               tuple(util.bus for util in hour.data.utilities),
               tuple(cap.bus for cap in hour.caps))
        if key not in self.layouts:
            self.layouts[key] = _Template(self, *key)
        return self.layouts[key]


class _Template:
    """One column layout of a grid: the names of its offer, utility and
    flexibility columns (``pg``, ``pl``, ``pflex``), each bus's balance row
    with its coefficients (``rows``), the ``simplex.Layout`` its first program
    sets (``layout``) and its crash basis (Bixby 1992) as a ``LinearProgram.start``
    (``crash``): every angle and the slack bus's import column (else the first
    offer's) span the balance and reference rows, because the reduced
    susceptance matrix of a connected network is nonsingular; each limit row
    keeps its slack.  None without offers."""

    def __init__(self, grid: Grid, offers, utilities, caps):
        slack = grid.net.slack_bus()
        self.crash = (tuple(grid.theta.values()) +
                      (_column("pg", slack if slack in offers else offers[0]),) +
                      grid.slacks, ()) if offers else None
        self.pg = tuple(_column("pg", bus) for bus in offers)
        self.pl = tuple(_column("pl", bus) for bus in utilities)
        self.pflex = tuple(_column("pflex", bus) for bus in caps)
        self.rows = []
        for bus, row in grid.balance.items():
            coeffs: dict[str, float] = {}
            if bus in offers:
                coeffs[_column("pg", bus)] = 1.0
            if bus in utilities:
                coeffs[_column("pl", bus)] = -1.0
            if bus in caps:
                coeffs[_column("pflex", bus)] = 1.0
            coeffs.update(grid.terms[grid.theta[bus]])
            self.rows.append((row, coeffs))
        self.layout = None


@dataclass(frozen=True)
class ValidHour:
    """An hour ``Grid.hours`` checked, which ``build_opf``, ``capped_dual`` and
    ``solve_opf_hour`` take; a caller that replaces its caps checks the new ones."""
    grid: Grid
    data: HourlyMarketData
    caps: tuple[PriceCap, ...] = ()


def build_opf(hour: ValidHour) -> LinearProgram:
    """Assemble the hour's LP: balance rows, angle reference, line-limit pairs,
    copied from its grid's compiled rows, over the record of its column
    layout (``Grid.template``)."""
    grid, data = hour.grid, hour.data
    template = grid.template(hour)
    prog = LinearProgram("maximize", name=f"opf_h{data.hour}")
    constant = 0.0

    for name in grid.theta.values():
        prog.add_column(name, -INF, INF)
    for name, offer in zip(template.pg, data.offers):
        prog.add_column(name, 0.0, offer.capacity_mw, objective=-offer.marginal_cost)
        constant -= offer.constant_cost
    for name, util in zip(template.pl, data.utilities):
        prog.add_column(name, util.p_min_mw, util.p_max_mw, objective=util.marginal_utility)
        constant += util.constant_utility
    for name, cap in zip(template.pflex, hour.caps):
        prog.add_column(name, 0.0, INF, objective=-cap.cap_for_hour(data.hour))

    for name, coeffs in template.rows:
        prog.add_row(name, coeffs, "=", 0.0)
    prog.add_row("angle_ref", grid.angle_ref, "=", 0.0)
    for hi, lo, coeffs, limit in grid.limits:
        prog.add_row(hi, coeffs, "<=", limit)
        prog.add_row(lo, coeffs, ">=", -limit)

    prog.constant = constant
    if template.layout is None:
        from .simplex import Layout  # numpy, like lp.solve, loads on a first solve
        template.layout = Layout(prog, template.crash)
    prog.layout = template.layout
    return prog


def capped_dual(hour: ValidHour) -> LinearProgram:
    """The dual of the hour's program without flexibility plus, per cap at bus
    ``k``, a row ``price_cap_k``: ``-y:balance_k <= pi``.  Its optimum equals
    ``build_opf(hour)``'s; the program minimises, so a cap row's dual is <= 0,
    and it is minus the flexibility ``build_opf(hour)`` buys at that bus."""
    dual = dual_program(build_opf(replace(hour, caps=())))
    for cap in hour.caps:
        dual.add_row(f"price_cap_{cap.bus}", {f"y:balance_{cap.bus}": -1.0}, "<=",
                     cap.cap_for_hour(hour.data.hour))
    return dual


def solve_opf_hour(hour: ValidHour, start=None) -> DispatchResult | None:
    """Solve one hour, with flexibility at each of ``hour.caps``; None if its
    load bounds are unreachable under the line limits.  ``start`` is an
    optional ``(basis, nonbasic_at_upper)`` pair the simplex tries first
    (``LinearProgram.start``), its layout's crash basis by default; the
    result's ``basis`` is the optimal pair in the same form."""
    prog = build_opf(hour)
    prog.start = prog.layout.crash if start is None else start
    sol = solve(prog)
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":
        raise ValueError(f"hour {hour.data.hour}: solver returned {sol.status}")

    grid, data, primal, duals = hour.grid, hour.data, sol.primal, sol.duals
    template = grid.template(hour)
    theta = {bus: primal[name] for bus, name in grid.theta.items()}
    flows, congestion = {}, {}
    for key, from_bus, to_bus, reactance, rows in grid.lines:
        flows[key] = (theta[from_bus] - theta[to_bus]) / reactance
        congestion[key] = 0.0 if rows is None else duals[rows[0]] - duals[rows[1]]

    return DispatchResult(
        hour=data.hour,
        p_g_mw={offer.bus: primal[name] for offer, name in zip(data.offers, template.pg)},
        p_l_mw={util.bus: primal[name] for util, name in zip(data.utilities, template.pl)},
        theta_rad=theta,
        lmp_eur_mwh={bus: price_paid_by_load(sol, row) for bus, row in grid.balance.items()},
        flow_mw=flows,
        congestion_dual_eur_mwh=congestion,
        p_flexreq_mw={cap.bus: primal[name] for cap, name in zip(hour.caps, template.pflex)},
        objective_eur=sol.objective_value,
        basis=(sol.basis, sol.nonbasic_at_upper),
        degenerate=sol.degenerate,
    )


def solve_opf_series(net: Network, series: list[HourlyMarketData],
                     caps: tuple[PriceCap, ...] = ()) -> list[DispatchResult | None]:
    """``solve_opf_hour`` of each hour of ``series`` with flexibility at each
    of ``caps``, every hour checked before the first solve."""
    return [solve_opf_hour(hour) for hour in Grid(net).hours(series, caps)]


DISPATCH_CSV_COLUMNS = [
    "hour", "kind", "bus", "line_from", "line_to",
    "lmp_eur_mwh", "p_g_mw", "p_l_mw", "p_flexreq_mw",
    "flow_mw", "congestion_dual_eur_mwh",
]


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_dispatch_csv(results: list[DispatchResult | None], fobj) -> None:
    """One row per (hour, bus) then one per (hour, line); skips infeasible hours."""
    writer = csv.writer(fobj, lineterminator="\n")
    writer.writerow(DISPATCH_CSV_COLUMNS)
    for res in results:
        if res is None:
            continue
        for bus in sorted(res.lmp_eur_mwh):
            writer.writerow([
                res.hour, "bus", bus, "", "",
                _fmt(res.lmp_eur_mwh[bus]),
                _fmt(res.p_g_mw.get(bus, 0.0)),
                _fmt(res.p_l_mw.get(bus, 0.0)),
                _fmt(res.p_flexreq_mw.get(bus, 0.0)),
                "", "",
            ])
        for key in res.flow_mw:
            writer.writerow([
                res.hour, "line", "", key[0], key[1],
                "", "", "", "",
                _fmt(res.flow_mw[key]),
                _fmt(res.congestion_dual_eur_mwh[key]),
            ])

