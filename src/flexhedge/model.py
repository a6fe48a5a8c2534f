"""Domain types for networks, offers, utilities and price caps.

Types are frozen dataclasses and deliberately dumb: constructors accept any
values, and ``validate_network`` / ``validate_market_data`` report every
violated invariant as a human-readable string.  Violations are data, not
faults, so callers (the CLI ``validate`` command in particular) can list all
of them at once instead of dying on the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

UNLIMITED = math.inf

HOURS = range(1, 25)


class UnknownBusError(KeyError):
    """A query referenced a bus id that is not part of the network."""


@dataclass(frozen=True)
class Bus:
    id: int
    is_slack: bool = False
    price_constrained: bool = False


@dataclass(frozen=True)
class Line:
    """A branch with per-unit reactance and an optional MW flow limit.

    ``flow_limit_mw`` is ``math.inf`` for an unbounded line.
    """
    from_bus: int
    to_bus: int
    reactance_pu: float
    flow_limit_mw: float = UNLIMITED

    @property
    def key(self) -> tuple[int, int]:
        return (self.from_bus, self.to_bus)


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]

    def __init__(self, buses, lines=()):
        object.__setattr__(self, "buses", tuple(buses))
        object.__setattr__(self, "lines", tuple(lines))

    def bus_ids(self) -> list[int]:
        return [b.id for b in self.buses]

    def slack_bus(self) -> int:
        for b in self.buses:
            if b.is_slack:
                return b.id
        raise UnknownBusError("network has no slack bus")

    def price_constrained_buses(self) -> set[int]:
        return {b.id for b in self.buses if b.price_constrained}


@dataclass(frozen=True)
class GenOffer:
    """A generation source: marginal cost a (EUR/MWh), constant cost c (EUR/h).

    The constant cost shifts the objective value only; it can never change
    the dispatch.
    """
    bus: int
    marginal_cost: float
    constant_cost: float = 0.0
    capacity_mw: float = UNLIMITED


@dataclass(frozen=True)
class LoadUtility:
    """A load with linear utility b (EUR/MWh) and consumption bounds in MW."""
    bus: int
    marginal_utility: float
    constant_utility: float = 0.0
    p_min_mw: float = 0.0
    p_max_mw: float = 0.0


@dataclass(frozen=True)
class PriceCap:
    """Maximum willingness to pay at a price-constrained bus.

    ``cap_eur_per_mwh`` is either a scalar (broadcast to all 24 hours) or a
    24-tuple of hourly values.
    """
    bus: int
    cap_eur_per_mwh: float | tuple[float, ...]

    def cap_for_hour(self, hour: int) -> float:
        if isinstance(self.cap_eur_per_mwh, tuple):
            return self.cap_eur_per_mwh[hour - 1]
        return self.cap_eur_per_mwh


@dataclass(frozen=True)
class HourlyMarketData:
    hour: int
    offers: tuple[GenOffer, ...] = ()
    utilities: tuple[LoadUtility, ...] = ()

    def __init__(self, hour, offers=(), utilities=()):
        object.__setattr__(self, "hour", hour)
        object.__setattr__(self, "offers", tuple(offers))
        object.__setattr__(self, "utilities", tuple(utilities))

    def offer_at(self, bus: int) -> GenOffer | None:
        for o in self.offers:
            if o.bus == bus:
                return o
        return None

    def utility_at(self, bus: int) -> LoadUtility | None:
        for u in self.utilities:
            if u.bus == bus:
                return u
        return None


def validate_network(net: Network) -> list[str]:
    """Every violated network invariant, with the offending element named."""
    problems: list[str] = []
    if not net.buses:
        problems.append("empty network")

    ids = [b.id for b in net.buses]
    duplicate_ids = len(set(ids)) != len(ids)
    if duplicate_ids:
        problems.append("duplicate bus ids")
    if net.buses and sorted(set(ids)) != list(range(1, len(set(ids)) + 1)):
        problems.append("bus ids are not dense 1-based indices")

    slack = [b.id for b in net.buses if b.is_slack]
    if not slack:
        problems.append("no slack bus")
    elif len(slack) > 1:
        problems.append(f"multiple slack buses: {slack}")

    known = set(ids)
    unknown_end = False
    adjacent: dict[int, list[int]] = {}
    seen_pairs: set[tuple[int, int]] = set()
    susceptance_sums: dict[int, float] = {}
    for line in net.lines:
        tag = f"line {line.from_bus}-{line.to_bus}"
        if line.from_bus == line.to_bus:
            problems.append(f"{tag}: self loop")
        for end in (line.from_bus, line.to_bus):
            if end not in known:
                problems.append(f"{tag}: unknown bus {end}")
                unknown_end = True
        adjacent.setdefault(line.from_bus, []).append(line.to_bus)
        adjacent.setdefault(line.to_bus, []).append(line.from_bus)
        pair = (min(line.from_bus, line.to_bus), max(line.from_bus, line.to_bus))
        if pair in seen_pairs:
            problems.append(f"{tag}: duplicate line between buses {pair[0]} and {pair[1]}")
        seen_pairs.add(pair)
        if not line.reactance_pu > 0:
            problems.append(f"{tag}: reactance_pu must be > 0, got {line.reactance_pu}")
        elif not math.isfinite(line.reactance_pu):  # no susceptance: its far end is islanded
            problems.append(f"{tag}: reactance_pu must be finite, got {line.reactance_pu}")
        elif not math.isfinite(1.0 / line.reactance_pu):
            problems.append(f"{tag}: reactance_pu {line.reactance_pu} is so small that "
                            f"its susceptance overflows")
        else:  # summed in line order, as opf.Grid sums each bus's angle term
            for end in (line.from_bus, line.to_bus):
                susceptance_sums[end] = susceptance_sums.get(end, 0.0) + 1.0 / line.reactance_pu
        if not line.flow_limit_mw > 0:
            problems.append(f"{tag}: flow_limit_mw must be > 0, got {line.flow_limit_mw}")
    for bus in dict.fromkeys(ids):
        if not math.isfinite(susceptance_sums.get(bus, 0.0)):
            problems.append(f"bus {bus}: its lines' susceptances sum past the largest float")

    # with a duplicate id or a line to an unknown bus, reachability means nothing
    if len(slack) == 1 and not (duplicate_ids or unknown_end):
        reached, todo = {slack[0]}, [slack[0]]
        while todo:
            for bus in adjacent.get(todo.pop(), ()):
                if bus not in reached:
                    reached.add(bus)
                    todo.append(bus)
        problems += [f"bus {b} unreachable from slack" for b in sorted(known - reached)]

    return problems


def validate_market_data(net: Network, data: HourlyMarketData) -> list[str]:
    """Invariants of one hour of market data against a network."""
    problems: list[str] = []
    known = set(net.bus_ids())
    tag = f"hour {data.hour}"
    if data.hour not in HOURS:
        problems.append(f"{tag}: hour must be in 1..24")

    offer_buses: list[int] = []
    for o in data.offers:
        if o.bus not in known:
            problems.append(f"{tag}: offer references unknown bus {o.bus}")
        if o.bus in offer_buses:
            problems.append(f"{tag}: more than one offer at bus {o.bus}")
        offer_buses.append(o.bus)
        if not math.isfinite(o.marginal_cost):
            problems.append(f"{tag}: offer at bus {o.bus} has non-finite marginal cost")
        elif o.marginal_cost < 0:
            problems.append(f"{tag}: offer at bus {o.bus} has negative marginal cost")
        if not math.isfinite(o.constant_cost):
            problems.append(f"{tag}: offer at bus {o.bus} has non-finite constant cost")
        if math.isnan(o.capacity_mw):
            problems.append(f"{tag}: offer at bus {o.bus} has NaN capacity")
        elif o.capacity_mw < 0:
            problems.append(f"{tag}: offer at bus {o.bus} has negative capacity")

    utility_buses: list[int] = []
    for u in data.utilities:
        if u.bus not in known:
            problems.append(f"{tag}: utility references unknown bus {u.bus}")
        if u.bus in utility_buses:
            problems.append(f"{tag}: more than one utility at bus {u.bus}")
        utility_buses.append(u.bus)
        if not math.isfinite(u.marginal_utility):
            problems.append(f"{tag}: utility at bus {u.bus} has non-finite marginal utility")
        if not math.isfinite(u.constant_utility):
            problems.append(f"{tag}: utility at bus {u.bus} has non-finite constant utility")
        if not 0 <= u.p_min_mw <= u.p_max_mw:
            problems.append(
                f"{tag}: load bounds at bus {u.bus} must satisfy 0 <= min <= max, "
                f"got [{u.p_min_mw}, {u.p_max_mw}]")
        elif not math.isfinite(u.p_max_mw):  # utility above cost would buy without end
            problems.append(f"{tag}: utility at bus {u.bus} has non-finite max load")

    return problems


def validate_price_cap(net: Network, cap: PriceCap) -> list[str]:
    problems: list[str] = []
    if cap.bus not in set(net.bus_ids()):
        problems.append(f"price cap references unknown bus {cap.bus}")
    elif cap.bus not in net.price_constrained_buses():
        problems.append(f"price cap at bus {cap.bus} which is not price constrained")
    values = cap.cap_eur_per_mwh
    if isinstance(values, tuple):
        if len(values) != 24:
            problems.append(f"price cap at bus {cap.bus}: need 24 hourly values, got {len(values)}")
    else:
        values = (values,)
    if not all(math.isfinite(v) for v in values):
        problems.append(f"price cap at bus {cap.bus}: non-finite cap value")
    elif any(v < 0 for v in values):
        problems.append(f"price cap at bus {cap.bus}: negative cap value")
    return problems
