"""Two-pass hedging pipeline: price discovery, flexibility sizing, settlement.

``run_hedge`` first solves the 24 hours with flexibility disabled, which
yields the prices the capped consumer would face on its own.  A second pass
enables the flexibility column at the capped bus; wherever the first-pass
price exceeded the cap, the second pass buys flexibility until the price sits
at the cap.  The aggregator is then paid, per hour, the first-pass price minus
the cap times the flexibility it provided.

Hours that are infeasible without flexibility have no defined unconstrained
price, so they are flagged and left out of the settlement.

The second pass adds one column to the first, ``pflex`` at objective -pi, so
an hour's optimal first-pass basis stays optimal exactly when the column's
reduced cost lambda_unc - pi is not positive (the test for adding a variable
to a solved LP).  Where the first-pass price is at or below the cap, the
second pass therefore keeps that hour's vertex with zero flexibility and
solves nothing, degenerate or not.  It solves the hours priced above the cap,
each warm from its first-pass basis, and the infeasible first-pass hours, from
the crash basis, and no others.

The first pass does not depend on the cap, and in the second the cap is only
``pflex``'s objective, so an hour's optimal second-pass basis stays optimal
over an interval of pi (Gass & Saaty 1955), and so does its flexibility.
``sweep_pi_des`` therefore solves the first pass once per line-limit case
and reads each hour's flexibility at a cap from the interval of the previous
cap that solved it; it solves the hour, from its first-pass basis as a run
alone does, only where the cap leaves that interval or comes near one of its
ends.  It does so one round at a time: each round solves every hour due a
solve at its next cap and ranges those solves in one call
(``simplex.cost_ranges``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Context, Decimal

from .model import Network, PriceCap
from .opf import (DispatchResult, Grid, ValidHour, price_paid_by_load, solve_opf_hour,
                  solve_opf_program, write_csv)
from .scenario import ScenarioError, apply_line_limits

ACTIVE_TOL = 1e-9
# a sweep solves an hour at a cap this close to an end of its basis's interval
# of pi: near an end a run alone may stop on a neighbouring basis
RANGE_TOL = 1e-6
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
        return sum((h.revenue_eur for h in self.hours if h.included), 0.0)

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


def run_hedge(net: Network, series, cap: PriceCap) -> HedgeRun:
    series = list(series)
    capped = Grid(net).hours(series, (cap,))
    pass1 = tuple(solve_opf_hour(replace(hour, caps=())) for hour in capped)
    # pass 1's optimal basis, with pflex nonbasic at 0, is feasible for pass 2,
    # and optimal unless pflex's reduced cost lambda_unc - pi is positive
    pass2 = tuple(solve_opf_hour(hour, None if unc is None else unc.basis)
                  if unc is None or unc.lmp_eur_mwh[cap.bus] > cap.cap_for_hour(unc.hour)
                  else replace(unc, p_flexreq_mw={cap.bus: 0.0})
                  for hour, unc in zip(capped, pass1))

    hours = []
    for data, unc, hed in zip(series, pass1, pass2):
        # an hour without both passes has no unconstrained price to settle at
        lam_unc = None if unc is None or hed is None else unc.lmp_eur_mwh[cap.bus]
        flex = 0.0 if hed is None else hed.p_flexreq_mw.get(cap.bus, 0.0)
        hours.append(HedgeHour(
            hour=data.hour,
            lambda_unconstrained=lam_unc,
            lambda_hedged=None if hed is None else hed.lmp_eur_mwh[cap.bus],
            p_flexreq_mw=flex,
            revenue_eur=None if lam_unc is None
            else hourly_revenue(lam_unc, cap.cap_for_hour(data.hour), flex),
        ))

    report = HedgeReport(bus=cap.bus, pi_des=cap.cap_eur_per_mwh, hours=tuple(hours))
    total = report.total_revenue_eur
    if not math.isfinite(total):  # an hour's revenue or their sum passed the largest float
        raise ValueError(f"cap {_render_pi(cap.cap_eur_per_mwh)}: "
                         f"total revenue overflows to {total!r} EUR")
    return HedgeRun(report=report, unconstrained=pass1, hedged=pass2)


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
    """Each cap value's total revenue under each line-limit scenario.

    ``scenarios`` maps a label to per-line flow-limit overrides applied on top
    of ``net`` (``None`` leaves the network untouched).  For a fixed scenario
    the total revenue can only shrink as the cap rises; any violation is
    reported as a warning because it indicates a solver or settlement bug.

    Each total is ``run_hedge(...).report.total_revenue_eur`` at that cap,
    summed in the same order, but each scenario solves pass 1 once and pass 2
    only where a cap leaves the interval of pi of the hour's last pass-2 basis.

    Before any solve it raises a ``ScenarioError`` with one argument per
    problem of ``net``, the caps and the hours (``Grid.problems_of``), then of
    each scenario's own network: line limits do not enter an hour's check, so
    hours are checked once per study.
    """
    series, pi_values = tuple(series), [float(pi) for pi in pi_values]
    for name, values in (("pi_values", pi_values), ("scenarios", scenarios)):
        if not values:
            raise ValueError(f"{name} must be non-empty")
    base = Grid(net)
    problems = base.problems_of(series, [PriceCap(bus, pi) for pi in pi_values])
    grids = {}
    for label, overrides in scenarios.items():
        try:
            grids[label] = grid = Grid(apply_line_limits(net, overrides)) if overrides else base
        except ScenarioError as exc:
            problems.append(f"scenario {label!r}: {exc}")
            continue
        problems += [f"scenario {label!r}: {p}" for p in grid.problems_of(())
                     if p not in problems]  # base's own are listed already
    if problems:
        raise ScenarioError(*problems)
    if sorted(pi_values) != pi_values:
        raise ValueError("pi_values must be sorted ascending")

    rows = []
    warnings = []
    for label, grid in grids.items():
        previous = None
        hours = [ValidHour(grid, data) for data in series]  # checked above
        for pi, total in zip(pi_values, _sweep_totals(hours, bus, pi_values)):
            if not math.isfinite(total):  # as in run_hedge
                raise ValueError(f"scenario {label!r}, cap {pi!r}: "
                                 f"total revenue overflows to {total!r} EUR")
            rows.append(SweepRow(pi_des=pi, scenario=label, total_revenue_eur=total))
            if previous is not None and total > previous + 1e-9:
                warnings.append(
                    f"scenario {label!r}: revenue rose from {previous} to {total} "
                    f"as the cap increased to {pi}")
            previous = total
    return SweepResult(rows=tuple(rows), monotonicity_warnings=tuple(warnings))


def _sweep_totals(hours: list[ValidHour], bus: int, pi_values: list[float]) -> list[float]:
    """``run_hedge``'s total revenue at each of the ascending caps.  A pass-2
    solve, from pass 1's basis as in ``run_hedge``, holds at each later cap
    inside the interval of pi where its basis stays optimal: none at a tie or
    a degenerate optimum, where a run alone may reach another vertex.  Pass 2
    runs in rounds: each solves every hour due a solve at its next cap, ranges
    them in one call and moves each hour past the caps its interval covers."""
    from .simplex import cost_ranges  # numpy loads on a first solve
    column = f"pflex_{bus}"
    revenues: list[list[float]] = []  # each included hour's revenue at every cap
    due = []  # (hour, lam_unc, pass 1's basis, its revenues, the cap to solve at)
    for hour in hours:  # pass 1 in full first
        unc = solve_opf_program(hour)[1]
        if unc.status == "infeasible":  # excluded at every cap
            continue
        revenues.append([0.0] * len(pi_values))  # hourly_revenue where pi >= lam_unc
        lam_unc = price_paid_by_load(unc, hour.grid.balance[bus])
        if lam_unc > pi_values[0]:
            due.append((hour, lam_unc, (unc.basis, unc.nonbasic_at_upper), revenues[-1], 0))
    while due:
        # pass 1's vertex with pflex at 0 is feasible, so each solve is optimal
        solved = [solve_opf_program(replace(hour, caps=(PriceCap(bus, pi_values[i]),)), start)
                  for hour, _, start, _, i in due]
        later = []
        for (hour, lam_unc, start, included, i), (_, hed), (c_lo, c_hi) in zip(
                due, solved, cost_ranges(solved, column)):
            flex, lo, hi = hed.primal[column], -c_hi, -c_lo  # pflex's objective is -pi
            included[i] = hourly_revenue(lam_unc, pi_values[i], flex)
            for i in range(i + 1, len(pi_values)):
                pi = pi_values[i]
                if not lam_unc > pi:
                    break
                if not lo + RANGE_TOL < pi < hi - RANGE_TOL:
                    later.append((hour, lam_unc, start, included, i))
                    break
                included[i] = hourly_revenue(lam_unc, pi, flex)
        due = later
    return [sum((included[i] for included in revenues), 0.0) for i in range(len(pi_values))]


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


def _hour_row(h: HedgeHour) -> tuple:
    """One hour's values in ``HEDGE_CSV_COLUMNS`` order: a CSV row, and the JSON's."""
    return (h.hour, h.lambda_unconstrained, h.lambda_hedged, h.p_flexreq_mw, h.revenue_eur,
            None if h.revenue_eur is None else format_eur(h.revenue_eur))


def write_hedge_csv(report: HedgeReport, fobj) -> None:
    write_csv(fobj, HEDGE_CSV_COLUMNS, map(_hour_row, report.hours))


def hedge_report_json(report: HedgeReport) -> str:
    """JSON document with full-precision values plus cent-rounded displays."""
    doc = {
        "schema": "flexhedge/hedge-report/1",
        "bus": report.bus,
        "pi_des_eur_mwh": report.pi_des,
        "hours": [{**dict(zip(HEDGE_CSV_COLUMNS, _hour_row(h))), "included": h.included}
                  for h in report.hours],
        "totals": {
            "total_revenue_eur": report.total_revenue_eur,
            "total_revenue_display": format_eur(report.total_revenue_eur),
            "hours_active": report.hours_active,
            "max_price_reduction_eur_mwh": report.max_price_reduction_eur_mwh,
            "excluded_hours": report.excluded_hours,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


SWEEP_CSV_COLUMNS = ["pi_des_eur_mwh", "scenario", "total_revenue_eur", "total_revenue_display"]


def write_sweep_csv(result: SweepResult, fobj) -> None:
    write_csv(fobj, SWEEP_CSV_COLUMNS, (
        (row.pi_des, row.scenario, row.total_revenue_eur, format_eur(row.total_revenue_eur))
        for row in result.rows))
