"""Hourly DC optimal power flow with optional flexibility at capped buses.

The network is encoded through one angle variable per bus: line flow is the
angle difference divided by reactance, every bus gets a balance equality (with
a flexibility column added at each bus given a price cap), the slack angle is
pinned by an explicit reference row, and each bounded line contributes two
one-sided limit rows so congestion shadow prices stay readable per direction.

An hour whose firm load cannot be served under the line limits is infeasible
and is reported as such; the toolkit never sheds firm load, because a shedding
variable would change the prices.

A study compiles its network once into a ``Grid``, the one place an input is
checked: ``Grid.hours`` raises every problem of the network, the caps and the
hours or returns each hour as a ``ValidHour``, the one hour type, which
``build_opf``, ``capped_dual`` and ``solve_opf_hour`` take unchecked.  Each
program carries the record of its column layout (``LinearProgram.layout``),
set by the buses of its offers, utilities and caps and built once per grid:
its dense constraint matrix, names and crash basis, whose inverse the first
crash-started solve computes for every later one.  So a solve reads only the
hour's right-hand sides, bounds and costs.

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


class HourInfeasibleError(RuntimeError):
    """Raised when an hour's load bounds are unreachable under the line limits."""

    def __init__(self, hour: int, detail: str = ""):
        self.hour = hour
        msg = f"hour {hour} is infeasible"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


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
    ``problems`` and, if valid, each bus's angle terms (accumulated in line
    order), the line-limit rows and each column layout's ``simplex.Layout``
    (``layout``)."""

    def __init__(self, net: Network):
        self.net, self.problems = net, validate_network(net)
        self.layouts = {}
        if self.problems:
            return
        self.terms: dict[str, dict[str, float]] = {_column("theta", b.id): {} for b in net.buses}
        self.limits = []
        for line in net.lines:
            b = 1.0 / line.reactance_pu
            theta_from = _column("theta", line.from_bus)
            theta_to = _column("theta", line.to_bus)
            for theta_i, theta_j in ((theta_from, theta_to), (theta_to, theta_from)):
                coeffs = self.terms[theta_i]
                coeffs[theta_i] = coeffs.get(theta_i, 0.0) - b
                coeffs[theta_j] = coeffs.get(theta_j, 0.0) + b
            if line.flow_limit_mw != INF:
                self.limits.append((f"{line.from_bus}_{line.to_bus}",
                                    {theta_from: b, theta_to: -b}, line.flow_limit_mw))
        self.slacks = tuple(f"slack:flow_{side}_{key}"
                            for key, _, _ in self.limits for side in ("hi", "lo"))

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

    def crash_start(self, data: HourlyMarketData):
        """The network's crash basis (Bixby 1992) as a ``LinearProgram.start``:
        every angle and the slack bus's import column (else the first offer's)
        span the balance and reference rows, because the reduced susceptance
        matrix of a connected network is nonsingular; each limit row keeps its
        slack.  None for an hour without offers."""
        buses = [offer.bus for offer in data.offers]
        if not buses:
            return None
        bus = self.net.slack_bus()
        return tuple(self.terms) + (_column("pg", bus if bus in buses else buses[0]),) + \
            self.slacks, ()

    def layout(self, prog: LinearProgram, data: HourlyMarketData):
        """``build_opf``'s program's ``simplex.Layout``, with the crash basis
        of ``data`` (``crash_start``), once per column layout."""
        key = tuple(prog.columns)
        if key not in self.layouts:
            from .simplex import Layout  # numpy, like lp.solve, loads on a first solve
            self.layouts[key] = Layout(prog, self.crash_start(data))
        return self.layouts[key]


@dataclass(frozen=True)
class ValidHour:
    """An hour ``Grid.hours`` checked, which ``build_opf``, ``capped_dual`` and
    ``solve_opf_hour`` take; a caller that replaces its caps checks the new ones."""
    grid: Grid
    data: HourlyMarketData
    caps: tuple[PriceCap, ...] = ()


def build_opf(hour: ValidHour) -> LinearProgram:
    """Assemble the hour's LP: balance rows, angle reference, line-limit pairs,
    over the record of its column layout (``Grid.layout``)."""
    grid, data = hour.grid, hour.data
    prog = LinearProgram("maximize", name=f"opf_h{data.hour}")
    constant = 0.0

    for bus in grid.net.buses:
        prog.add_column(_column("theta", bus.id), -INF, INF)

    for offer in data.offers:
        prog.add_column(_column("pg", offer.bus), 0.0, offer.capacity_mw,
                        objective=-offer.marginal_cost)
        constant -= offer.constant_cost
    for util in data.utilities:
        prog.add_column(_column("pl", util.bus), util.p_min_mw, util.p_max_mw,
                        objective=util.marginal_utility)
        constant += util.constant_utility
    for cap in hour.caps:
        prog.add_column(_column("pflex", cap.bus), 0.0, INF,
                        objective=-cap.cap_for_hour(data.hour))

    offer_buses = {offer.bus for offer in data.offers}
    utility_buses = {util.bus for util in data.utilities}
    flex_buses = {cap.bus for cap in hour.caps}
    for bus, bus_terms in zip(grid.net.buses, grid.terms.values()):
        coeffs: dict[str, float] = {}
        if bus.id in offer_buses:
            coeffs[_column("pg", bus.id)] = 1.0
        if bus.id in utility_buses:
            coeffs[_column("pl", bus.id)] = -1.0
        if bus.id in flex_buses:
            coeffs[_column("pflex", bus.id)] = 1.0
        coeffs.update(bus_terms)
        prog.add_row(f"balance_{bus.id}", coeffs, "=", 0.0)

    prog.add_row("angle_ref", {_column("theta", grid.net.slack_bus()): 1.0}, "=", 0.0)

    for key, coeffs, limit in grid.limits:
        prog.add_row(f"flow_hi_{key}", coeffs, "<=", limit)
        prog.add_row(f"flow_lo_{key}", coeffs, ">=", -limit)

    prog.constant = constant
    prog.layout = grid.layout(prog, data)
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


def solve_opf_hour(hour: ValidHour, start=None) -> DispatchResult:
    """Solve one hour, with flexibility at each of ``hour.caps``.  ``start`` is
    an optional ``(basis, nonbasic_at_upper)`` pair the simplex tries first
    (``LinearProgram.start``), the network's ``crash_start`` by default; the
    result's ``basis`` is the optimal pair in the same form."""
    prog = build_opf(hour)
    prog.start = prog.layout.crash if start is None else start
    sol = solve(prog)
    if sol.status == "infeasible":
        raise HourInfeasibleError(hour.data.hour,
                                  "load bounds unreachable under line limits")
    if sol.status != "optimal":
        raise ValueError(f"hour {hour.data.hour}: solver returned {sol.status}")

    net, data = hour.grid.net, hour.data
    theta = {b.id: sol.primal[_column("theta", b.id)] for b in net.buses}
    p_g = {o.bus: sol.primal[_column("pg", o.bus)] for o in data.offers}
    p_l = {u.bus: sol.primal[_column("pl", u.bus)] for u in data.utilities}
    lmp = {b.id: price_paid_by_load(sol, f"balance_{b.id}") for b in net.buses}

    flows = {}
    congestion = {}
    for line in net.lines:
        flow = (theta[line.from_bus] - theta[line.to_bus]) / line.reactance_pu
        flows[line.key] = flow
        if line.flow_limit_mw == INF:
            congestion[line.key] = 0.0
        else:
            mu_hi = dual_of(sol, f"flow_hi_{line.from_bus}_{line.to_bus}")
            mu_lo = dual_of(sol, f"flow_lo_{line.from_bus}_{line.to_bus}")
            congestion[line.key] = mu_hi - mu_lo

    flex = {c.bus: sol.primal[_column("pflex", c.bus)] for c in hour.caps}

    return DispatchResult(
        hour=data.hour,
        p_g_mw=p_g,
        p_l_mw=p_l,
        theta_rad=theta,
        lmp_eur_mwh=lmp,
        flow_mw=flows,
        congestion_dual_eur_mwh=congestion,
        p_flexreq_mw=flex,
        objective_eur=sol.objective_value,
        basis=(sol.basis, sol.nonbasic_at_upper),
        degenerate=sol.degenerate,
    )


def solve_opf_hours(hours: list[ValidHour], starts: list | None = None) -> list[DispatchResult | None]:
    """Solve each hour independently (``solve_opf_hour``), in any order to the
    same results; infeasible hours yield ``None``.  ``starts`` optionally gives
    each hour's warm start (``None`` for a cold one), such as its last ``basis``."""
    results: list[DispatchResult | None] = []
    for hour, start in zip(hours, [None] * len(hours) if starts is None else starts):
        try:
            results.append(solve_opf_hour(hour, start))
        except HourInfeasibleError:
            results.append(None)
    return results


def solve_opf_series(net: Network, series: list[HourlyMarketData],
                     caps: tuple[PriceCap, ...] = ()) -> list[DispatchResult | None]:
    """``solve_opf_hours`` of ``series`` with flexibility at each of ``caps``,
    every hour checked before the first solve."""
    return solve_opf_hours(Grid(net).hours(series, caps))


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

