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
hours or returns each hour as a ``ValidHour``, the one hour type, which the
functions below take unchecked.  ``solve_opf_program`` is the one path from a
``ValidHour`` to its solution: it builds the program and hands it to
``simplex.solve_program`` with no re-check.  The grid compiles, once per
study, every name and row an hour needs and, per column layout (the buses of
an hour's offers, utilities and caps), its one record, a ``simplex.Layout``
(``Grid.layout``, which ``build_opf`` looks up): the dense matrix, names,
rows, crash basis, the arrays every hour of the layout starts from and the
inverse of each start basis, which the first start on that basis computes for
every later one.  So ``build_opf`` only copies the bounds and costs, fills in
the hour's own columns after the angles and hands them over, with the layout,
as ``LinearProgram.arrays``, which a solve reads as they are; the program's
name dicts are built only if something reads them, and a solve then compiles
them afresh.  ``solve_opf_hour`` reads that solution by layout position.

``capped_dual`` builds the paper's side of the same hour: the dual of the
program without flexibility, with the price at each capped bus bounded.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, replace

from .lp import INF, LinearProgram, LpSolution, SolverFailureError, dual_of, dual_program
from .model import (
    HourlyMarketData,
    Network,
    PriceCap,
    validate_market_data,
    validate_network,
    validate_price_cap,
)
from .scenario import ScenarioError


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
    return 0.0 - dual_of(sol, balance_row)  # a zero dual is a price of 0.0, not -0.0


class Grid:
    """A network validated and compiled once per study: ``validate_network``'s
    ``problems`` and, if valid, every name and row an hour needs.  Per bus, in
    bus order, its angle column (``theta``), its balance row (``balance``) and
    the angle terms of that row (accumulated in line order); the angle
    reference row; the line-limit rows (``limits``: each bounded line's
    ``flow_hi`` and ``flow_lo`` row specs); and per line a readout record
    (``lines``: key, end buses, reactance and the position of its ``flow_hi``
    row in every layout's rows, ``flow_lo`` next, or None).  ``layouts``
    holds each column layout's ``simplex.Layout`` (``layout``)."""

    def __init__(self, net: Network):
        self.net, self.problems = net, validate_network(net)
        self.layouts: dict[tuple, Layout] = {}
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
            hi = None
            if line.flow_limit_mw != INF:
                key, flow = f"{line.from_bus}_{line.to_bus}", {theta_from: b, theta_to: -b}
                hi = len(net.buses) + 1 + len(self.limits)  # past balance and reference rows
                self.limits += [(f"flow_hi_{key}", flow, "<=", line.flow_limit_mw),
                                (f"flow_lo_{key}", flow, ">=", -line.flow_limit_mw)]
            self.lines.append((line.key, line.from_bus, line.to_bus, line.reactance_pu, hi))
        self.angle_ref = {self.theta[net.slack_bus()]: 1.0}
        self.slacks = tuple(f"slack:{spec[0]}" for spec in self.limits)

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
        raises a ``ScenarioError`` with one argument per problem
        (``problems_of``, then each bus with more than one cap)."""
        series, caps = tuple(series), tuple(caps)
        problems = self.problems_of(series, caps) + [
            f"more than one price cap at bus {bus}"
            for bus, count in Counter(cap.bus for cap in caps).items() if count > 1]
        if problems:
            raise ScenarioError(*problems)
        return [ValidHour(self, data, caps) for data in series]

    def layout(self, hour: ValidHour) -> Layout:
        """The ``simplex.Layout`` of ``hour``'s column layout, set by the buses
        of its offers, utilities and caps; compiled on first use.  Its columns
        are the angles, free at no cost, then the offer, utility and
        flexibility columns of those buses, in that order, whose bounds and
        costs each hour fills in; its rows each bus's balance, the angle
        reference and the limit pairs.  Its crash basis (Bixby 1992), as a
        ``LinearProgram.start``: every angle and the slack bus's import column
        (else the first offer's) span the balance and reference rows, because
        the reduced susceptance matrix of a connected network is nonsingular;
        each limit row keeps its slack.  None without offers."""
        key = (tuple(offer.bus for offer in hour.data.offers),
               tuple(util.bus for util in hour.data.utilities),
               tuple(cap.bus for cap in hour.caps))
        if key in self.layouts:
            return self.layouts[key]
        from .simplex import Layout  # numpy, like lp.solve, loads with a first layout
        offers, utilities, caps = key
        slack = self.net.slack_bus()
        crash = (tuple(self.theta.values()) +
                 (_column("pg", slack if slack in offers else offers[0]),) +
                 self.slacks, ()) if offers else None
        specs = []
        for bus, row in self.balance.items():
            coeffs: dict[str, float] = {}
            if bus in offers:
                coeffs[_column("pg", bus)] = 1.0
            if bus in utilities:
                coeffs[_column("pl", bus)] = -1.0
            if bus in caps:
                coeffs[_column("pflex", bus)] = 1.0
            coeffs.update(self.terms[self.theta[bus]])
            specs.append((row, coeffs, "=", 0.0))
        specs += [("angle_ref", self.angle_ref, "=", 0.0), *self.limits]
        columns = [*self.theta.values(), *(_column("pg", bus) for bus in offers),
                   *(_column("pl", bus) for bus in utilities),
                   *(_column("pflex", bus) for bus in caps)]
        n = len(columns)
        self.layouts[key] = Layout(columns, specs, [-INF] * n, [INF] * n, [0.0] * n, crash)
        return self.layouts[key]


@dataclass(frozen=True)
class ValidHour:
    """An hour ``Grid.hours`` checked, which ``build_opf``, ``capped_dual`` and
    ``solve_opf_hour`` take; a caller that replaces its caps checks the new ones."""
    grid: Grid
    data: HourlyMarketData
    caps: tuple[PriceCap, ...] = ()


def build_opf(hour: ValidHour) -> LinearProgram:
    """The hour's LP as arrays over its column layout (``Grid.layout``,
    ``LinearProgram.arrays``): balance rows, angle reference and line-limit
    pairs as compiled once per layout, and the bounds and costs of the hour's
    offer, utility and flexibility columns filled in after the angles;
    started at that layout's crash basis (``LinearProgram.start``).  From the
    slack basis a one-bus hour can end with the angle reference's slack
    basic at zero and report a degenerate optimum that is not one; the crash
    basis holds the angles basic."""
    data, layout = hour.data, hour.grid.layout(hour)
    offers, utilities = data.offers, data.utilities
    flex = [-cap.cap_for_hour(data.hour) for cap in hour.caps]
    own = slice(len(hour.grid.theta), len(layout.columns))  # the hour's columns
    lo, up, c = layout.lo.copy(), layout.up.copy(), layout.c.copy()
    lo[own] = [0.0] * len(offers) + [util.p_min_mw for util in utilities] + [0.0] * len(flex)
    up[own] = [offer.capacity_mw for offer in offers] + \
        [util.p_max_mw for util in utilities] + [INF] * len(flex)
    c[own] = [-offer.marginal_cost for offer in offers] + \
        [util.marginal_utility for util in utilities] + flex
    constant = 0.0
    for offer in offers:
        constant -= offer.constant_cost
    for util in utilities:
        constant += util.constant_utility

    prog = LinearProgram("maximize", name=f"opf_h{data.hour}")
    prog.start, prog.constant = layout.crash, constant
    prog.arrays = (layout, lo, up, c)
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


def solve_opf_program(hour: ValidHour, start=None) -> tuple[LinearProgram, LpSolution]:
    """The hour's program (``build_opf``) and its optimal or infeasible
    solution; raises on any other status.  ``start`` is an optional
    ``(basis, nonbasic_at_upper)`` pair the simplex tries first
    (``LinearProgram.start``), its layout's crash basis by default."""
    from .simplex import solve_program  # at call time, as in lp.solve: numpy loads late
    prog = build_opf(hour)
    prog.start = start or prog.start
    try:
        sol = solve_program(prog)
    except SolverFailureError as exc:
        raise SolverFailureError(f"hour {hour.data.hour}: {exc}") from None
    if sol.status not in ("optimal", "infeasible"):
        raise ValueError(f"hour {hour.data.hour}: solver returned {sol.status}")
    return prog, sol


def solve_opf_hour(hour: ValidHour, start=None) -> DispatchResult | None:
    """Solve one hour (``solve_opf_program``), with flexibility at each of
    ``hour.caps``, and read its solution by layout position; None if its load
    bounds are unreachable under the line limits.  The result's ``basis`` is
    the optimal pair in ``start``'s form."""
    sol = solve_opf_program(hour, start)[1]
    if sol.status == "infeasible":
        return None

    grid, data = hour.grid, hour.data
    x, y = list(sol.primal.values()), list(sol.duals.values())  # in the layout's order
    theta = dict(zip(grid.theta, x))
    own = iter(x[len(theta):])  # the offer, utility and cap columns, in that order
    p_g, p_l, flex = [{item.bus: next(own) for item in items}
                      for items in (data.offers, data.utilities, hour.caps)]
    flows, congestion = {}, {}
    for key, from_bus, to_bus, reactance, hi in grid.lines:
        flows[key] = (theta[from_bus] - theta[to_bus]) / reactance
        congestion[key] = 0.0 if hi is None else y[hi] - y[hi + 1]

    return DispatchResult(
        hour=data.hour,
        p_g_mw=p_g,
        p_l_mw=p_l,
        theta_rad=theta,
        lmp_eur_mwh={bus: 0.0 - dual for bus, dual in zip(grid.balance, y)},  # price_paid_by_load
        flow_mw=flows,
        congestion_dual_eur_mwh=congestion,
        p_flexreq_mw=flex,
        objective_eur=sol.objective_value,
        basis=(sol.basis, sol.nonbasic_at_upper),
        degenerate=sol.degenerate,
    )


def solve_opf_series(net: Network, series: list[HourlyMarketData]) -> list[DispatchResult | None]:
    """``solve_opf_hour`` of each hour of ``series``, every hour checked
    before the first solve."""
    return [solve_opf_hour(hour) for hour in Grid(net).hours(series)]


DISPATCH_CSV_COLUMNS = [
    "hour", "kind", "bus", "line_from", "line_to",
    "lmp_eur_mwh", "p_g_mw", "p_l_mw", "p_flexreq_mw",
    "flow_mw", "congestion_dual_eur_mwh",
]


def write_csv(fobj, columns, rows) -> None:
    """The one CSV writer: a header of ``columns``, then ``rows`` of Python
    ints, floats, strings and ``None``s, which the csv module writes as each
    value's ``str`` (a float's is its ``repr``) and ``None`` as an empty cell."""
    writer = csv.writer(fobj, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def write_dispatch_csv(results: list[DispatchResult | None], fobj) -> None:
    """One row per (hour, bus) then one per (hour, line); skips infeasible hours."""
    def rows():
        for res in filter(None, results):  # an infeasible hour is None
            for bus in sorted(res.lmp_eur_mwh):
                yield (res.hour, "bus", bus, None, None, res.lmp_eur_mwh[bus],
                       res.p_g_mw.get(bus, 0.0), res.p_l_mw.get(bus, 0.0),
                       res.p_flexreq_mw.get(bus, 0.0), None, None)
            for key, flow in res.flow_mw.items():
                yield (res.hour, "line", None, *key, None, None, None, None,
                       flow, res.congestion_dual_eur_mwh[key])
    write_csv(fobj, DISPATCH_CSV_COLUMNS, rows())
