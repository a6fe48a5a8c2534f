"""Seeded 30-bus synthetic mesh for the ``mesh30-day`` workload.

The network is a random spanning tree rooted at the slack bus plus random
chords; a third of its lines carry flow limits.  Every hour is feasible by
construction: the elastic loads may fall to zero, and the firm load at the
price-constrained bus has a local peaking unit large enough to serve it
alone, so zero flow on every line is always a feasible dispatch.

The topology, line data, and the placement and size of generators and loads
come from the fixed ``STRUCTURE_SEED``; ``seed`` draws each hour's offer
prices, load utilities and load levels, the way the ``paper-3bus`` preset's
seed draws its hourly costs.  The structure is fixed because simplex work
differs by about 13% (interquartile range of iteration counts) between random
structures, against about 2.5% between days drawn on one structure.

Randomness comes only from ``flexhedge.scenario.SplitMix64`` and nothing is
downloaded, so a seed gives the same mesh on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from flexhedge.model import Bus, GenOffer, HourlyMarketData, Line, LoadUtility, Network, PriceCap
from flexhedge.opf import solve_opf_series
from flexhedge.scenario import DEFAULT_LOAD_PROFILE_MW, DEFAULT_WHOLESALE_EUR_MWH, SplitMix64

STRUCTURE_SEED = 0
N_BUSES = 30
N_CHORDS = 22
N_LIMITED = 17  # a third of the 29 + 22 lines
N_GENERATORS = 13  # besides the slack import and the peaker at the capped bus
N_ELASTIC_LOADS = 19
IMPORT_CAPACITY_MW = 1000.0
PEAKER_PRICE_FACTOR = 1.8
CAP_GAP_EUR_MWH = 1e-3  # least distance between the cap and any hour's price
HOURLY_SPREAD = 0.1  # hourly prices, utilities and load levels vary by +-10%


@dataclass(frozen=True)
class Mesh:
    network: Network
    hours: tuple[HourlyMarketData, ...]
    cap: PriceCap
    hours_binding: int  # hours whose unconstrained price exceeds the cap


def _pick(rng: SplitMix64, n: int) -> int:
    return rng.next_u64() % n


def _sample(rng: SplitMix64, pool: list[int], k: int) -> list[int]:
    pool = list(pool)
    chosen = []
    for _ in range(k):
        chosen.append(pool.pop(_pick(rng, len(pool))))
    return chosen


def _topology(rng: SplitMix64) -> tuple[list[tuple[int, int]], dict[int, int]]:
    depth = {1: 0}
    edges = []
    for bus in range(2, N_BUSES + 1):
        parent = 1 + _pick(rng, bus - 1)
        edges.append((parent, bus))
        depth[bus] = depth[parent] + 1
    present = {frozenset(e) for e in edges}
    while len(edges) < N_BUSES - 1 + N_CHORDS:
        a, b = 1 + _pick(rng, N_BUSES), 1 + _pick(rng, N_BUSES)
        if a != b and frozenset((a, b)) not in present:
            present.add(frozenset((a, b)))
            edges.append((min(a, b), max(a, b)))
    return edges, depth


def synthetic_mesh(seed: int) -> Mesh:
    """Network, 24 hours of market data and a cap that binds in about half the hours.

    The cap is placed between two of the day's unconstrained prices at the
    capped bus, so ``Mesh.hours_binding`` hours have a price above it.
    """
    rng = SplitMix64(STRUCTURE_SEED)
    edges, depth = _topology(rng)
    # the capped bus is the deepest bus of the tree, so congestion reaches it
    capped = max(range(1, N_BUSES + 1), key=lambda b: (depth[b], -b))

    limited = set(_sample(rng, list(range(len(edges))), N_LIMITED))
    lines = []
    for i, (a, b) in enumerate(edges):
        limit = rng.uniform(0.2, 1.2) if i in limited else float("inf")
        lines.append(Line(a, b, rng.uniform(0.05, 0.3), limit))
    buses = [Bus(b, is_slack=b == 1, price_constrained=b == capped)
             for b in range(1, N_BUSES + 1)]
    net = Network(buses, lines)

    others = [b for b in range(2, N_BUSES + 1) if b != capped]
    gens = {b: (rng.uniform(0.6, 1.1), rng.uniform(0.5, 2.0))
            for b in _sample(rng, others, N_GENERATORS)}
    loads = {b: (rng.uniform(1.2, 1.6), rng.uniform(0.3, 1.2))
             for b in _sample(rng, others, N_ELASTIC_LOADS)}
    firm_peak = rng.uniform(1.5, 2.5)

    rng = SplitMix64(seed)

    def jitter() -> float:
        return rng.uniform(1 - HOURLY_SPREAD, 1 + HOURLY_SPREAD)

    hours = []
    for hour in range(1, 25):
        w = DEFAULT_WHOLESALE_EUR_MWH[hour - 1]
        shape = DEFAULT_LOAD_PROFILE_MW[hour - 1]
        offers = [GenOffer(1, w, 0.0, IMPORT_CAPACITY_MW)]
        for bus, (factor, capacity) in sorted(gens.items()):
            offers.append(GenOffer(bus, w * factor * jitter(), 0.0, capacity))
        offers.append(GenOffer(capped, w * PEAKER_PRICE_FACTOR, 0.0, firm_peak))
        utilities = [LoadUtility(bus, w * factor * jitter(), 0.0, 0.0, peak * shape * jitter())
                     for bus, (factor, peak) in sorted(loads.items())]
        firm = firm_peak * shape
        # firm load: its utility sets only the objective constant, never the dispatch
        utilities.append(LoadUtility(capped, w * PEAKER_PRICE_FACTOR * 1.5, 0.0, firm, firm))
        hours.append(HourlyMarketData(hour, offers, utilities))

    cap_value, binding = _median_cap(net, hours, capped)
    return Mesh(net, tuple(hours), PriceCap(capped, cap_value), binding)


def _median_cap(net: Network, hours: list[HourlyMarketData], bus: int) -> tuple[float, int]:
    """A cap between two hourly prices at ``bus``, splitting the day near its middle.

    The cap keeps ``CAP_GAP_EUR_MWH`` away from every price, so whether an
    hour binds never rests on a tie.
    """
    prices = sorted(r.lmp_eur_mwh[bus] for r in solve_opf_series(net, hours))
    splits = [(abs(i - len(prices) // 2), i) for i in range(1, len(prices))
              if prices[i] - prices[i - 1] > 2 * CAP_GAP_EUR_MWH]
    _, i = min(splits)
    return (prices[i - 1] + prices[i]) / 2, len(prices) - i
