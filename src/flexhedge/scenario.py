"""Synthetic day scenarios: the seeded three-bus preset and scenario files.

A scenario is a 24-hour market data series on the three-bus triangle under one
of the ``LINE_LIMIT_CASES``.  Hourly distributed-resource costs are drawn below
the wholesale import price (scaled down by ``DIST_SCALE``) and load utilities
land strictly between the two, so the merit order is distribution first, import
second, every hour.  The import price curve and the firm load profile are fixed.

Randomness comes from SplitMix64, a tiny fully specified generator
(state increment 0x9E3779B97F4A7C15, mixing multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB), so a seed produces the same scenario on any platform or
implementation.  Draw order is fixed: for each hour 1..24 the distribution
cost is drawn first, the load utility second.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import (
    Bus,
    GenOffer,
    HourlyMarketData,
    Line,
    LoadUtility,
    Network,
)

_MASK64 = (1 << 64) - 1


class ScenarioError(ValueError):
    """Malformed input, one argument per problem; its message joins them with "; "."""

    def __str__(self) -> str:
        return "; ".join(map(str, self.args))


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

DIST_SCALE = 0.30  # an hour's distributed cost is at most 70% of its import price
DIST_CAPACITY_MW = 0.85
TRANS_CAPACITY_MW = 5.0
FINITE_LIMIT_MW = 0.6
BASE_LIMIT_MW = 1.0

TRANS_BUS, DIST_BUS, LOAD_BUS = 1, 2, 3

PRESET_NAMES = ("paper-3bus",)
# each case's line-limit overrides on the triangle, whose lines carry BASE_LIMIT_MW
LINE_LIMIT_CASES = {"infinite": {}, "finite": {(2, 3): FINITE_LIMIT_MW}}


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to generate a reproducible 24-hour scenario."""
    seed: int = 0
    line_limit_case: str = "infinite"

    def validate(self) -> list[str]:
        problems = []
        if not 0 <= self.seed <= _MASK64:  # SplitMix64 would fold it onto another seed
            problems.append(f"seed must be in 0..{_MASK64}, got {self.seed}")
        if self.line_limit_case not in LINE_LIMIT_CASES:
            problems.append(f"line_limit_case must be {'|'.join(LINE_LIMIT_CASES)}, "
                            f"got {self.line_limit_case!r}")
        return problems


@dataclass(frozen=True)
class Scenario:
    network: Network
    hours: tuple[HourlyMarketData, ...]


def build_3bus_network(case: str = "infinite") -> Network:
    """The triangle network: import at bus 1 (slack), distributed source at
    bus 2, price-constrained load at bus 3; 0.1 p.u. reactance on every line.

    Every line carries ``BASE_LIMIT_MW`` (never binding at this scale), then
    the case's ``LINE_LIMIT_CASES`` overrides apply.
    """
    if case not in LINE_LIMIT_CASES:
        raise ScenarioError(f"unknown line limit case {case!r}")
    base = Network(
        buses=[Bus(TRANS_BUS, is_slack=True), Bus(DIST_BUS),
               Bus(LOAD_BUS, price_constrained=True)],
        lines=[Line(1, 2, 0.1, BASE_LIMIT_MW),
               Line(1, 3, 0.1, BASE_LIMIT_MW),
               Line(2, 3, 0.1, BASE_LIMIT_MW)],
    )
    return apply_line_limits(base, LINE_LIMIT_CASES[case])


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

    Per hour l, with wholesale the ``DEFAULT_WHOLESALE_EUR_MWH`` curve: the
    distribution cost is uniform on [(1 - DIST_SCALE) * min(wholesale),
    (1 - DIST_SCALE) * wholesale_l] and the load utility is uniform on the open
    interval (dist cost, wholesale_l), so dist < utility < import holds
    strictly for every hour.  The load is firm at ``DEFAULT_LOAD_PROFILE_MW``.
    """
    problems = spec.validate()
    if problems:
        raise ScenarioError(*problems)

    rng = SplitMix64(spec.seed)
    floor = (1.0 - DIST_SCALE) * min(DEFAULT_WHOLESALE_EUR_MWH)
    hours = []
    for hour, (wholesale, load) in enumerate(
            zip(DEFAULT_WHOLESALE_EUR_MWH, DEFAULT_LOAD_PROFILE_MW), start=1):
        a_dist = rng.uniform(floor, (1.0 - DIST_SCALE) * wholesale)
        b_load = rng.uniform_open(a_dist, wholesale)
        hours.append(HourlyMarketData(
            hour=hour,
            offers=[
                GenOffer(TRANS_BUS, wholesale, 0.0, TRANS_CAPACITY_MW),
                GenOffer(DIST_BUS, a_dist, 0.0, DIST_CAPACITY_MW),
            ],
            utilities=[LoadUtility(LOAD_BUS, b_load, 0.0, load, load)],
        ))

    return Scenario(network=build_3bus_network(spec.line_limit_case), hours=tuple(hours))


def preset_spec(name: str, case: str = "infinite", seed: int = 0) -> ScenarioSpec:
    if name not in PRESET_NAMES:
        raise ScenarioError(f"unknown preset {name!r}; available: {PRESET_NAMES}")
    return ScenarioSpec(seed=seed, line_limit_case=case)


# ---------------------------------------------------------------------------
# Scenario text files: [buses] / [lines] / [offers] / [utilities] tables.
# Format documented in the README; floats are written with repr so a
# write/load round trip reproduces values exactly.

def _fmt(value: float) -> str:
    return repr(float(value))  # repr spells infinity inf, which float() reads back


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


def read_sections(lines, known=None):
    """Yield ``(line number, section, text)`` for each data line of a sectioned
    text file: ``#`` starts a comment, blank lines are skipped, ``[name]`` opens
    a section, and the section is None before the first header.  With
    ``known``, a header outside it is an error at its line."""
    section = None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1]
            if known is not None and section not in known:
                raise ScenarioError(f"line {lineno}: unknown section [{section}]")
        else:
            yield lineno, section, text


# each section's row fields; a row outside [buses] is two integers, then floats
_FIELDS = {"buses": "id flags", "lines": "from to reactance limit",
           "offers": "hour bus a c capacity", "utilities": "hour bus b c min max"}


def _parse(token: str, lineno: int, integer: bool):
    try:
        return int(token) if integer else float(token)
    except ValueError:
        kind = "an integer" if integer else "a number"
        raise ScenarioError(f"line {lineno}: not {kind}: {token!r}") from None


def load_scenario_file(fobj) -> tuple[Network, tuple[HourlyMarketData, ...]]:
    """Parse a scenario file; semantic validation is the caller's job."""
    buses: list[Bus] = []
    rows: dict[str, list[list]] = {"lines": [], "offers": [], "utilities": []}
    for lineno, section, text in read_sections(fobj, _FIELDS):
        if section is None:
            raise ScenarioError(f"line {lineno}: data before any section header")
        fields = text.split()
        if len(fields) != len(_FIELDS[section].split()):
            raise ScenarioError(f"line {lineno}: [{section}] rows need '{_FIELDS[section]}'")
        if section != "buses":
            rows[section].append([_parse(token, lineno, integer=i < 2)
                                  for i, token in enumerate(fields)])
            continue
        bus_id = _parse(fields[0], lineno, integer=True)
        flags = set() if fields[1] == "-" else set(fields[1].split(","))
        unknown = flags - {"slack", "k"}
        if unknown:
            raise ScenarioError(f"line {lineno}: unknown bus flags {sorted(unknown)}")
        buses.append(Bus(bus_id, is_slack="slack" in flags, price_constrained="k" in flags))

    if not buses:
        raise ScenarioError("scenario file defines no buses")
    by_hour: dict[int, tuple[list[GenOffer], list[LoadUtility]]] = {}
    for section, kind, at in (("offers", GenOffer, 0), ("utilities", LoadUtility, 1)):
        for hour, *values in rows[section]:
            by_hour.setdefault(hour, ([], []))[at].append(kind(*values))
    series = tuple(HourlyMarketData(h, *by_hour[h]) for h in sorted(by_hour))
    return Network(buses=buses, lines=[Line(*values) for values in rows["lines"]]), series
