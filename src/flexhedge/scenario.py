"""Synthetic day scenarios: seeded generation, presets, and file ingestion.

A scenario is a 24-hour market data series on a small network.  Hourly
distributed-resource costs are drawn below the wholesale import price (scaled
down by ``dist_scale``) and load utilities land strictly between the two, so
the merit order is distribution first, import second, every hour.

Randomness comes from SplitMix64, a tiny fully specified generator
(state increment 0x9E3779B97F4A7C15, mixing multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB), so a seed produces the same scenario on any platform or
implementation.  Draw order is fixed: for each hour 1..24 the distribution
cost is drawn first, the load utility second.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

from .model import (
    Bus,
    GenOffer,
    HourlyMarketData,
    Line,
    LoadUtility,
    Network,
    UNLIMITED,
)

_MASK64 = (1 << 64) - 1


class ScenarioError(ValueError):
    """Malformed scenario specification or input file."""


class SplitMix64:
    """Deterministic 64-bit generator; uniform doubles use the top 53 bits."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform in [lo, hi)."""
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def uniform_open(self, lo: float, hi: float) -> float:
        """Uniform in the open interval (lo, hi); endpoints never returned."""
        u = ((self.next_u64() >> 11) | 1) * 2.0**-53
        return lo + (hi - lo) * u


# Built-in day shapes for the three-bus preset: an import price curve that
# crosses 70 EUR/MWh at hour 9, and a firm load peaking through the evening.
DEFAULT_WHOLESALE_EUR_MWH = (
    46.3, 44.1, 42.8, 42.0, 43.5, 47.9, 54.6, 63.2,
    71.4, 74.8, 76.2, 75.1, 73.9, 74.6, 75.8, 76.4,
    77.9, 76.9, 78.4, 77.2, 74.3, 71.8, 66.5, 58.7,
)

DEFAULT_LOAD_PROFILE_MW = (
    0.55, 0.52, 0.50, 0.50, 0.52, 0.58, 0.68, 0.78,
    0.86, 0.90, 0.92, 0.93, 0.94, 0.96, 0.98, 1.00,
    1.00, 0.99, 0.98, 0.98, 0.97, 0.96, 0.88, 0.70,
)

DIST_CAPACITY_MW = 0.85
TRANS_CAPACITY_MW = 5.0
FINITE_LIMIT_MW = 0.6
BASE_LIMIT_MW = 1.0

TRANS_BUS, DIST_BUS, LOAD_BUS = 1, 2, 3

PRESET_NAMES = ("paper-3bus",)


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to generate a reproducible 24-hour scenario."""
    wholesale_series: tuple[float, ...] = DEFAULT_WHOLESALE_EUR_MWH
    dist_scale: float = 0.30
    seed: int = 0
    load_bounds: tuple[tuple[float, float], ...] = tuple(
        (p, p) for p in DEFAULT_LOAD_PROFILE_MW)
    line_limit_case: str = "infinite"

    def validate(self) -> list[str]:
        problems = []
        if len(self.wholesale_series) != 24:
            problems.append(
                f"wholesale_series needs 24 entries, got {len(self.wholesale_series)}")
        if any(w <= 0 or math.isnan(w) for w in self.wholesale_series):
            problems.append("wholesale_series entries must be positive")
        if not 0.0 < self.dist_scale < 1.0:
            problems.append(f"dist_scale must be in (0, 1), got {self.dist_scale}")
        if len(self.load_bounds) != 24:
            problems.append(f"load_bounds needs 24 entries, got {len(self.load_bounds)}")
        for i, (lo, hi) in enumerate(self.load_bounds, start=1):
            if not 0 <= lo <= hi:
                problems.append(f"load_bounds hour {i}: need 0 <= min <= max, got [{lo}, {hi}]")
        if self.line_limit_case not in ("infinite", "finite"):
            problems.append(f"line_limit_case must be infinite|finite, got {self.line_limit_case!r}")
        return problems


@dataclass(frozen=True)
class Scenario:
    network: Network
    hours: tuple[HourlyMarketData, ...]
    spec: ScenarioSpec | None = None


def build_3bus_network(case: str = "infinite") -> Network:
    """The triangle network: import at bus 1 (slack), distributed source at
    bus 2, price-constrained load at bus 3; 0.1 p.u. reactance on every line.

    The base case limits every line to 1.0 MW (never binding at this scale);
    the finite case tightens line 2-3 to ``FINITE_LIMIT_MW``.
    """
    if case not in ("infinite", "finite"):
        raise ScenarioError(f"unknown line limit case {case!r}")
    return Network(
        buses=[Bus(TRANS_BUS, is_slack=True), Bus(DIST_BUS),
               Bus(LOAD_BUS, price_constrained=True)],
        lines=[Line(1, 2, 0.1, BASE_LIMIT_MW),
               Line(1, 3, 0.1, BASE_LIMIT_MW),
               Line(2, 3, 0.1, FINITE_LIMIT_MW if case == "finite" else BASE_LIMIT_MW)],
    )


def apply_line_limits(net: Network, overrides: dict[tuple[int, int], float]) -> Network:
    """A copy of ``net`` with selected line limits replaced (unordered keys)."""
    wanted = {(min(k), max(k)): v for k, v in overrides.items()}
    lines = []
    for line in net.lines:
        key = (min(line.key), max(line.key))
        if key in wanted:
            lines.append(replace(line, flow_limit_mw=wanted.pop(key)))
        else:
            lines.append(line)
    if wanted:
        raise ScenarioError(f"overrides reference unknown lines: {sorted(wanted)}")
    return Network(buses=net.buses, lines=lines)


def generate_scenario(spec: ScenarioSpec) -> Scenario:
    """Draw the hourly coefficients; identical spec (seed included) gives an
    identical scenario.

    Per hour l: the distribution cost is uniform on
    [(1 - dist_scale) * min(wholesale), (1 - dist_scale) * wholesale_l] and the
    load utility is uniform on the open interval (dist cost, wholesale_l), so
    dist < utility < import holds strictly for every hour.
    """
    problems = spec.validate()
    if problems:
        raise ScenarioError("; ".join(problems))

    rng = SplitMix64(spec.seed)
    floor = (1.0 - spec.dist_scale) * min(spec.wholesale_series)
    hours = []
    for hour in range(1, 25):
        wholesale = spec.wholesale_series[hour - 1]
        a_dist = rng.uniform(floor, (1.0 - spec.dist_scale) * wholesale)
        b_load = rng.uniform_open(a_dist, wholesale)
        p_min, p_max = spec.load_bounds[hour - 1]
        hours.append(HourlyMarketData(
            hour=hour,
            offers=[
                GenOffer(TRANS_BUS, wholesale, 0.0, TRANS_CAPACITY_MW),
                GenOffer(DIST_BUS, a_dist, 0.0, DIST_CAPACITY_MW),
            ],
            utilities=[LoadUtility(LOAD_BUS, b_load, 0.0, p_min, p_max)],
        ))

    net = build_3bus_network(spec.line_limit_case)
    return Scenario(network=net, hours=tuple(hours), spec=spec)


def preset_spec(name: str, case: str = "infinite", seed: int = 0) -> ScenarioSpec:
    if name not in PRESET_NAMES:
        raise ScenarioError(f"unknown preset {name!r}; available: {PRESET_NAMES}")
    return ScenarioSpec(seed=seed, line_limit_case=case)


def load_price_csv(fobj) -> tuple[float, ...]:
    """Read a 24-row hourly price series; header must be hour,price_eur_mwh."""
    reader = csv.reader(fobj)
    try:
        header = next(reader)
    except StopIteration:
        raise ScenarioError("price CSV is empty") from None
    if [h.strip() for h in header] != ["hour", "price_eur_mwh"]:
        raise ScenarioError(f"price CSV header must be 'hour,price_eur_mwh', got {header}")

    prices: dict[int, float] = {}
    problems = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 2:
            problems.append(f"row {lineno}: expected 2 fields, got {len(row)}")
            continue
        try:
            hour = int(row[0])
            price = float(row[1])
        except ValueError:
            problems.append(f"row {lineno}: could not parse {row!r}")
            continue
        if hour < 1 or hour > 24:
            problems.append(f"row {lineno}: hour {hour} outside 1..24")
            continue
        if hour in prices:
            problems.append(f"row {lineno}: duplicate hour {hour}")
            continue
        if math.isnan(price):
            problems.append(f"row {lineno}: price is NaN")
            continue
        if price < 0:
            problems.append(f"row {lineno}: negative price {price}")
            continue
        prices[hour] = price

    if len(prices) != 24 and not problems:
        problems.append(f"expected 24 data rows, found {len(prices)}")
    if problems:
        raise ScenarioError("; ".join(problems))
    return tuple(prices[h] for h in range(1, 25))


# ---------------------------------------------------------------------------
# Scenario text files: [buses] / [lines] / [offers] / [utilities] tables.
# Format documented in the README; floats are written with repr so a
# write/load round trip reproduces values exactly.

def _fmt(value: float) -> str:
    if value == UNLIMITED:
        return "inf"
    return repr(float(value))


def write_scenario_file(net: Network, hours, fobj) -> None:
    w = fobj.write
    w("# flexhedge scenario\n")
    w("[buses]\n")
    w("# id flags (- | slack | k | slack,k)\n")
    for bus in net.buses:
        flags = [name for name, on in (("slack", bus.is_slack),
                                       ("k", bus.price_constrained)) if on]
        w(f"{bus.id} {','.join(flags) if flags else '-'}\n")
    w("\n[lines]\n")
    w("# from to reactance_pu flow_limit_mw\n")
    for line in net.lines:
        w(f"{line.from_bus} {line.to_bus} {_fmt(line.reactance_pu)} {_fmt(line.flow_limit_mw)}\n")
    w("\n[offers]\n")
    w("# hour bus marginal_cost constant_cost capacity_mw\n")
    for data in hours:
        for o in data.offers:
            w(f"{data.hour} {o.bus} {_fmt(o.marginal_cost)} {_fmt(o.constant_cost)} "
              f"{_fmt(o.capacity_mw)}\n")
    w("\n[utilities]\n")
    w("# hour bus marginal_utility constant_utility p_min_mw p_max_mw\n")
    for data in hours:
        for u in data.utilities:
            w(f"{data.hour} {u.bus} {_fmt(u.marginal_utility)} {_fmt(u.constant_utility)} "
              f"{_fmt(u.p_min_mw)} {_fmt(u.p_max_mw)}\n")


def _parse_float(token: str, lineno: int) -> float:
    if token == "inf":
        return UNLIMITED
    try:
        return float(token)
    except ValueError:
        raise ScenarioError(f"line {lineno}: not a number: {token!r}") from None


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ScenarioError(f"line {lineno}: not an integer: {token!r}") from None


def load_scenario_file(fobj) -> tuple[Network, tuple[HourlyMarketData, ...]]:
    """Parse a scenario file; semantic validation is the caller's job."""
    buses: list[Bus] = []
    lines: list[Line] = []
    offers: dict[int, list[GenOffer]] = {}
    utilities: dict[int, list[LoadUtility]] = {}
    section = None

    for lineno, raw in enumerate(fobj, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1]
            if section not in ("buses", "lines", "offers", "utilities"):
                raise ScenarioError(f"line {lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise ScenarioError(f"line {lineno}: data before any section header")
        fields = text.split()
        if section == "buses":
            if len(fields) != 2:
                raise ScenarioError(f"line {lineno}: [buses] rows need 'id flags'")
            bus_id = _parse_int(fields[0], lineno)
            flags = set() if fields[1] == "-" else set(fields[1].split(","))
            unknown = flags - {"slack", "k"}
            if unknown:
                raise ScenarioError(f"line {lineno}: unknown bus flags {sorted(unknown)}")
            buses.append(Bus(bus_id, is_slack="slack" in flags,
                             price_constrained="k" in flags))
        elif section == "lines":
            if len(fields) != 4:
                raise ScenarioError(
                    f"line {lineno}: [lines] rows need 'from to reactance limit'")
            lines.append(Line(_parse_int(fields[0], lineno), _parse_int(fields[1], lineno),
                              _parse_float(fields[2], lineno),
                              _parse_float(fields[3], lineno)))
        elif section == "offers":
            if len(fields) != 5:
                raise ScenarioError(
                    f"line {lineno}: [offers] rows need 'hour bus a c capacity'")
            hour = _parse_int(fields[0], lineno)
            offers.setdefault(hour, []).append(GenOffer(
                _parse_int(fields[1], lineno), _parse_float(fields[2], lineno),
                _parse_float(fields[3], lineno), _parse_float(fields[4], lineno)))
        else:
            if len(fields) != 6:
                raise ScenarioError(
                    f"line {lineno}: [utilities] rows need 'hour bus b c min max'")
            hour = _parse_int(fields[0], lineno)
            utilities.setdefault(hour, []).append(LoadUtility(
                _parse_int(fields[1], lineno), _parse_float(fields[2], lineno),
                _parse_float(fields[3], lineno), _parse_float(fields[4], lineno),
                _parse_float(fields[5], lineno)))

    if not buses:
        raise ScenarioError("scenario file defines no buses")
    all_hours = sorted(set(offers) | set(utilities))
    series = tuple(HourlyMarketData(hour=h, offers=offers.get(h, []),
                                    utilities=utilities.get(h, []))
                   for h in all_hours)
    return Network(buses=buses, lines=lines), series
