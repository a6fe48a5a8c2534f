"""Two-pass hedging pipeline: price discovery, flexibility sizing, settlement.

``run_hedge`` first solves the 24 hours with flexibility disabled, which
yields the prices the capped consumer would face on its own.  A second pass
enables the flexibility column at the capped bus; wherever the first-pass
price exceeded the cap, the second pass buys flexibility until the price sits
at the cap.  The aggregator is then paid, per hour, the first-pass price minus
the cap times the flexibility it provided.

Hours that are infeasible without flexibility have no defined unconstrained
price, so they are flagged and left out of the settlement.

The first pass does not depend on the cap.  ``sweep_pi_des`` therefore solves
it once per line-limit case and every cap of that case reuses it; outside a
sweep each ``run_hedge`` solves both passes.

The second pass adds one column to the first, ``pflex`` at objective -pi, so
an hour's optimal first-pass basis stays optimal exactly when the column's
reduced cost lambda_unc - pi is not positive (the test for adding a variable
to a solved LP).  Where the first-pass price is at or below the cap, the
second pass therefore keeps that hour's vertex with zero flexibility and
solves nothing; only the hours priced above the cap are solved, each warm
from its first-pass basis.  Degenerate and infeasible first-pass hours are
solved too, because a warm start from them does not end on that vertex.

In the second pass the cap is only ``pflex``'s objective, so an hour's optimal
basis at one cap stays feasible at the next (Gass & Saaty 1955): within a
sweep each hour's second pass starts from its basis at the previous cap that
solved it.  Such a solve ends on the vertex a run alone reaches: a unique
optimum is reached from any start, a degenerate one is re-solved from the
slack basis (``simplex``), and one that ends on a tie, where a nonbasic
column could move at zero reduced cost, is solved again from pass 1's basis.
It can list that vertex's basis in another row order than a run alone, and
its values then differ in the last few ulps.
"""

from __future__ import annotations

import csv
import json
from contextvars import ContextVar
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Context, Decimal

from .model import Network, PriceCap, validate_price_cap
from .opf import DispatchResult, solve_opf_series
from .scenario import apply_line_limits

ACTIVE_TOL = 1e-9
# the largest float has 309 integer digits; the default 28 digits overflow at 1e26
_CENTS = Context(prec=320, rounding=ROUND_HALF_UP)


def format_eur(value: float) -> str:
    """Display rounding to cents, half-up; storage keeps full precision."""
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), context=_CENTS))


def hourly_revenue(lambda_unconstrained: float, pi_des: float,
                   p_flexreq_mw: float) -> float:
    """Settlement for one hour: price reduction times flexibility provided."""
    if lambda_unconstrained > pi_des:
        return (lambda_unconstrained - pi_des) * p_flexreq_mw
    return 0.0


@dataclass(frozen=True)
class HedgeHour:
    hour: int
    lambda_unconstrained: float | None
    lambda_hedged: float | None
    p_flexreq_mw: float
    revenue_eur: float | None

    @property
    def included(self) -> bool:
        return self.revenue_eur is not None


@dataclass(frozen=True)
class HedgeReport:
    bus: int
    pi_des: float | tuple[float, ...]
    hours: tuple[HedgeHour, ...]

    @property
    def total_revenue_eur(self) -> float:
        return sum(h.revenue_eur for h in self.hours if h.included)

    @property
    def hours_active(self) -> int:
        return sum(1 for h in self.hours if h.p_flexreq_mw > ACTIVE_TOL)

    @property
    def max_price_reduction_eur_mwh(self) -> float:
        reductions = [h.lambda_unconstrained - h.lambda_hedged
                      for h in self.hours
                      if h.lambda_unconstrained is not None and h.lambda_hedged is not None]
        return max(reductions, default=0.0)

    @property
    def excluded_hours(self) -> tuple[int, ...]:
        return tuple(h.hour for h in self.hours if not h.included)

    @property
    def warning_count(self) -> int:
        return len(self.excluded_hours)


@dataclass(frozen=True)
class HedgeRun:
    """A hedge report plus the dispatch series behind both passes."""
    report: HedgeReport
    unconstrained: tuple[DispatchResult | None, ...]
    hedged: tuple[DispatchResult | None, ...]


# while a sweep runs, by (network, hours): pass 1's results and, per capped
# bus, each hour's optimal pass-2 basis at the latest cap that solved it,
# which run_hedge adds and updates in place; None outside a sweep
_SWEEP_MEMO: ContextVar[dict | None] = ContextVar("_SWEEP_MEMO", default=None)


def _price_discovery(net: Network, series: list) -> tuple[tuple, dict[int, dict]]:
    """Pass 1 and its pass-2 bases by capped bus, memoised within a sweep."""
    memo = _SWEEP_MEMO.get()
    key = (net, tuple(series))
    if memo is not None and key in memo:
        return memo[key]
    found = tuple(solve_opf_series(net, series)), {}
    if memo is not None:
        memo[key] = found
    return found


def _keeps_vertex(unc: DispatchResult | None, cap: PriceCap) -> bool:
    """Whether pass 1's optimal basis stays optimal once pass 2 adds ``pflex``:
    the hour has a non-degenerate basis (a degenerate warm start falls back to
    the slack basis) and the column's reduced cost lambda_unc - pi is not
    positive, so the first pricing step of a warm start would reject it."""
    return unc is not None and not unc.degenerate and \
        unc.lmp_eur_mwh[cap.bus] <= cap.cap_for_hour(unc.hour)


def run_hedge(net: Network, series, cap: PriceCap) -> HedgeRun:
    series = list(series)
    pass1, pass2_bases = _price_discovery(net, series)
    problems = validate_price_cap(net, cap)  # hours that keep pass 1's vertex build no program
    if problems:
        raise ValueError("; ".join(problems))
    keep = [_keeps_vertex(unc, cap) for unc in pass1]
    pass2 = [replace(unc, p_flexreq_mw={cap.bus: 0.0}) if k else None
             for unc, k in zip(pass1, keep)]

    def solve(hours: list[int], starts: list) -> None:
        solved = solve_opf_series(net, [series[h] for h in hours], caps=(cap,), starts=starts)
        for h, hed in zip(hours, solved):
            pass2[h] = hed

    # pass 1's optimal basis, with pflex nonbasic at 0, is feasible for pass 2,
    # and so is an hour's optimal pass-2 basis at an earlier cap of the sweep
    first = [None if unc is None else unc.basis for unc in pass1]
    latest = pass2_bases.setdefault(cap.bus, {})
    to_solve = [h for h, k in enumerate(keep) if not k]
    solve(to_solve, [latest.get(h, first[h]) for h in to_solve])
    # where an hour has several optimal vertices the start picks one, so a
    # continued start that ends on a tie is solved again from pass 1's basis,
    # the start of a run outside a sweep
    tied = [h for h in to_solve
            if h in latest and pass2[h] is not None and pass2[h].dual_degenerate]
    solve(tied, [first[h] for h in tied])
    latest.update((h, pass2[h].basis) for h in to_solve if pass2[h] is not None)

    hours = []
    for data, unc, hed in zip(series, pass1, pass2):
        pi = cap.cap_for_hour(data.hour)
        if unc is None or hed is None:
            hours.append(HedgeHour(
                hour=data.hour,
                lambda_unconstrained=None,
                lambda_hedged=hed.lmp_eur_mwh[cap.bus] if hed is not None else None,
                p_flexreq_mw=hed.p_flexreq_mw.get(cap.bus, 0.0) if hed is not None else 0.0,
                revenue_eur=None,
            ))
            continue
        lam_unc = unc.lmp_eur_mwh[cap.bus]
        lam_hed = hed.lmp_eur_mwh[cap.bus]
        flex = hed.p_flexreq_mw.get(cap.bus, 0.0)
        hours.append(HedgeHour(
            hour=data.hour,
            lambda_unconstrained=lam_unc,
            lambda_hedged=lam_hed,
            p_flexreq_mw=flex,
            revenue_eur=hourly_revenue(lam_unc, pi, flex),
        ))

    report = HedgeReport(bus=cap.bus, pi_des=cap.cap_eur_per_mwh, hours=tuple(hours))
    return HedgeRun(report=report, unconstrained=pass1, hedged=tuple(pass2))


def settlement_bound_notes(report: HedgeReport, series) -> list[str]:
    """Informational check, never a constraint: each hour's settlement should
    stay below the price reduction times the whole load at the capped bus
    (the ceiling an alternative supplier at the cap would have earned).
    """
    loads = {}
    for data in series:
        util = data.utility_at(report.bus)
        loads[data.hour] = util.p_max_mw if util is not None else 0.0
    cap = PriceCap(report.bus, report.pi_des)
    notes = []
    for h in report.hours:
        if not h.included or h.p_flexreq_mw <= ACTIVE_TOL:
            continue
        ceiling = (h.lambda_unconstrained - cap.cap_for_hour(h.hour)) * loads[h.hour]
        if h.revenue_eur > ceiling + 1e-9:
            notes.append(
                f"hour {h.hour}: settlement {h.revenue_eur:.6f} EUR exceeds the "
                f"competing-supply ceiling {ceiling:.6f} EUR")
    return notes


@dataclass(frozen=True)
class SweepRow:
    pi_des: float
    scenario: str
    total_revenue_eur: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    monotonicity_warnings: tuple[str, ...]


def sweep_pi_des(net: Network, series, bus: int, pi_values,
                 scenarios: dict[str, dict[tuple[int, int], float] | None],
                 ) -> SweepResult:
    """One hedge run per (cap value, line-limit scenario).

    ``scenarios`` maps a label to per-line flow-limit overrides applied on top
    of ``net`` (``None`` leaves the network untouched).  For a fixed scenario
    the total revenue can only shrink as the cap rises; any violation is
    reported as a warning because it indicates a solver or settlement bug.

    Pass 1 (price discovery) is solved once per line-limit scenario: each cap
    is still a full ``run_hedge`` call, which reuses that scenario's pass 1
    for the duration of the sweep and starts each hour's pass 2 from that
    hour's optimal pass-2 basis at the previous cap that solved it.
    """
    series, pi_values = tuple(series), list(pi_values)  # every cap reads every hour
    if not pi_values:
        raise ValueError("pi_values must be non-empty")
    if sorted(pi_values) != pi_values:
        raise ValueError("pi_values must be sorted ascending")

    rows = []
    warnings = []
    token = _SWEEP_MEMO.set({})
    try:
        for label, overrides in scenarios.items():
            scenario_net = net if not overrides else apply_line_limits(net, overrides)
            previous = None
            for pi in pi_values:
                run = run_hedge(scenario_net, series, PriceCap(bus, float(pi)))
                total = run.report.total_revenue_eur
                rows.append(SweepRow(pi_des=float(pi), scenario=label,
                                     total_revenue_eur=total))
                if previous is not None and total > previous + 1e-9:
                    warnings.append(
                        f"scenario {label!r}: revenue rose from {previous} to {total} "
                        f"as the cap increased to {pi}")
                previous = total
    finally:
        _SWEEP_MEMO.reset(token)
    return SweepResult(rows=tuple(rows), monotonicity_warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# Coordination trace: the message sequence between consumer, operator and
# aggregator that the settlement implies.

@dataclass(frozen=True)
class PriceRequest:
    pi_des: float | tuple[float, ...]
    bus: int


@dataclass(frozen=True)
class DsoComputation:
    hour: int
    p_flexreq_mw: float


@dataclass(frozen=True)
class FlexRequest:
    hour: int
    mw: float


@dataclass(frozen=True)
class Settlement:
    hour: int
    amount_eur: float


def coordination_trace(report: HedgeReport) -> list:
    """Ordered event list; hours without flexibility produce no events."""
    events: list = [PriceRequest(pi_des=report.pi_des, bus=report.bus)]
    for h in report.hours:
        if h.p_flexreq_mw <= ACTIVE_TOL:
            continue
        events.append(DsoComputation(hour=h.hour, p_flexreq_mw=h.p_flexreq_mw))
        events.append(FlexRequest(hour=h.hour, mw=h.p_flexreq_mw))
        events.append(Settlement(hour=h.hour,
                                 amount_eur=h.revenue_eur if h.revenue_eur is not None else 0.0))
    return events


def render_trace(events) -> str:
    lines = []
    for ev in events:
        if isinstance(ev, PriceRequest):
            lines.append(f"PriceRequest bus={ev.bus} pi_des={_render_pi(ev.pi_des)}")
        elif isinstance(ev, DsoComputation):
            lines.append(f"DsoComputation hour={ev.hour} p_flexreq_mw={ev.p_flexreq_mw!r}")
        elif isinstance(ev, FlexRequest):
            lines.append(f"FlexRequest hour={ev.hour} mw={ev.mw!r}")
        else:
            lines.append(f"Settlement hour={ev.hour} amount_eur={ev.amount_eur!r} "
                         f"({format_eur(ev.amount_eur)})")
    return "\n".join(lines) + "\n"


def _render_pi(pi) -> str:
    if isinstance(pi, tuple):
        return ",".join(repr(v) for v in pi)
    return repr(pi)


# ---------------------------------------------------------------------------
# Exports

HEDGE_CSV_COLUMNS = [
    "hour", "lambda_unconstrained_eur_mwh", "lambda_hedged_eur_mwh",
    "p_flexreq_mw", "revenue_eur", "revenue_display",
]


def write_hedge_csv(report: HedgeReport, fobj) -> None:
    writer = csv.writer(fobj, lineterminator="\n")
    writer.writerow(HEDGE_CSV_COLUMNS)
    for h in report.hours:
        writer.writerow([
            h.hour,
            "" if h.lambda_unconstrained is None else repr(h.lambda_unconstrained),
            "" if h.lambda_hedged is None else repr(h.lambda_hedged),
            repr(h.p_flexreq_mw),
            "" if h.revenue_eur is None else repr(h.revenue_eur),
            "" if h.revenue_eur is None else format_eur(h.revenue_eur),
        ])


def read_hedge_csv(fobj) -> list[dict]:
    reader = csv.DictReader(fobj)
    if reader.fieldnames != HEDGE_CSV_COLUMNS:
        raise ValueError(f"unexpected hedge CSV header: {reader.fieldnames}")
    rows = []
    for row in reader:
        rows.append({
            "hour": int(row["hour"]),
            "lambda_unconstrained_eur_mwh": (
                None if row["lambda_unconstrained_eur_mwh"] == ""
                else float(row["lambda_unconstrained_eur_mwh"])),
            "lambda_hedged_eur_mwh": (
                None if row["lambda_hedged_eur_mwh"] == ""
                else float(row["lambda_hedged_eur_mwh"])),
            "p_flexreq_mw": float(row["p_flexreq_mw"]),
            "revenue_eur": None if row["revenue_eur"] == "" else float(row["revenue_eur"]),
        })
    return rows


def hedge_report_json(report: HedgeReport) -> str:
    """JSON document with full-precision values plus cent-rounded displays."""
    doc = {
        "schema": "flexhedge/hedge-report/1",
        "bus": report.bus,
        "pi_des_eur_mwh": list(report.pi_des) if isinstance(report.pi_des, tuple)
                          else report.pi_des,
        "hours": [
            {
                "hour": h.hour,
                "lambda_unconstrained_eur_mwh": h.lambda_unconstrained,
                "lambda_hedged_eur_mwh": h.lambda_hedged,
                "p_flexreq_mw": h.p_flexreq_mw,
                "revenue_eur": h.revenue_eur,
                "revenue_display": None if h.revenue_eur is None else format_eur(h.revenue_eur),
                "included": h.included,
            }
            for h in report.hours
        ],
        "totals": {
            "total_revenue_eur": report.total_revenue_eur,
            "total_revenue_display": format_eur(report.total_revenue_eur),
            "hours_active": report.hours_active,
            "max_price_reduction_eur_mwh": report.max_price_reduction_eur_mwh,
            "excluded_hours": list(report.excluded_hours),
        },
    }
    return json.dumps(doc, indent=2) + "\n"


SWEEP_CSV_COLUMNS = ["pi_des_eur_mwh", "scenario", "total_revenue_eur", "total_revenue_display"]


def write_sweep_csv(result: SweepResult, fobj) -> None:
    writer = csv.writer(fobj, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    for row in result.rows:
        writer.writerow([repr(row.pi_des), row.scenario,
                         repr(row.total_revenue_eur), format_eur(row.total_revenue_eur)])
