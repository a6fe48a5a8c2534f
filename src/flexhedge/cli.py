"""Batch front-end: run hedging studies, cap sweeps, and input validation.

Artifacts are plot-ready CSV/JSON series written atomically into the output
directory; nothing interactive.  A config file (same sectioned text format as
scenario files, ``key = value`` lines) can stand in for command-line flags;
flags win on conflict.  The only environment variable honored is
``FLEXHEDGE_OUT`` (default output directory).
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
from pathlib import Path

from .economic_dispatch import EdInstance, solve_ed_chain
from .hedging import (
    coordination_trace,
    format_eur,
    hedge_report_json,
    render_trace,
    run_hedge,
    settlement_bound_notes,
    sweep_pi_des,
    write_hedge_csv,
    write_sweep_csv,
)
from .lp import SolverFailureError
from .model import GenOffer, LoadUtility, PriceCap
from .opf import Grid, write_dispatch_csv
from .scenario import (
    FINITE_LIMIT_MW,
    PRESET_NAMES,
    ScenarioError,
    apply_line_limits,
    generate_scenario,
    load_scenario_file,
    preset_spec,
)

DEFAULT_OUT = "flexhedge-out"
ENV_OUT = "FLEXHEDGE_OUT"
SWEEP_CASES = {"infinite": None, "finite": {(2, 3): FINITE_LIMIT_MW}}  # line-limit overrides


def _fail(*problems: str) -> int:
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1


def _atomic_write(path: Path, content: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(content)
    os.replace(tmp, path)


def _render(writer, *args) -> str:
    buf = io.StringIO()
    writer(*args, buf)
    return buf.getvalue()


def _parse_pi_des(text: str):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) == 1:
        return float(parts[0])
    values = tuple(float(p) for p in parts)
    if len(values) != 24:
        raise ValueError(f"--pi-des needs 1 or 24 values, got {len(values)}")
    return values


def _parse_line_limits(pairs: list[str]) -> dict[tuple[int, int], float]:
    overrides = {}
    for item in pairs:
        try:
            ends, value = item.split("=", 1)
            a, b = ends.split("-")
            overrides[(int(a), int(b))] = float(value)
        except ValueError:
            raise ValueError(f"bad --line-limit {item!r}; expected FROM-TO=MW") from None
    return overrides


def _load_config_file(path: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("[") and text.endswith("]"):
            current = text[1:-1]
            sections.setdefault(current, {})
            continue
        if current is None or "=" not in text:
            raise ScenarioError(f"config line {lineno}: expected 'key = value' inside a section")
        key, value = text.split("=", 1)
        sections[current][key.strip()] = value.strip()
    return sections


def _apply_config_defaults(args: argparse.Namespace) -> None:
    """Fill each option the command line left unset from the command's section
    of the config file.  Its keys are the command's options that default to
    None, or False for a switch; any other key is an error."""
    if not getattr(args, "config", None):
        return
    section = args.command
    options = {action.dest: action for action in args.parser._actions
               if action.default in (None, False) and action.dest != "config"}
    for key, raw in _load_config_file(args.config).get(section, {}).items():
        if key not in options:
            raise ScenarioError(f"config: unknown key {key!r} in [{section}]")
        action = options[key]
        convert = (lambda text: text.lower() in ("1", "true", "yes")) \
            if action.nargs == 0 else action.type or str  # a switch takes no value
        if getattr(args, key) in (None, False):
            try:
                setattr(args, key, convert(raw))
            except ValueError:
                raise ScenarioError(
                    f"config: bad value {raw!r} for {key!r} in [{section}]") from None


def _resolve_scenario(args, case: str | None = None) -> tuple:
    """Network and 24-hour series from a preset, or an input file (no case or seed)."""
    if bool(args.preset) == bool(args.input):
        raise ValueError("exactly one of --preset or --input is required")
    if args.preset:
        spec = preset_spec(args.preset, case=case or "infinite", seed=args.seed or 0)
        scenario = generate_scenario(spec)
        net, hours = scenario.network, scenario.hours
    else:
        for flag, value in (("--case", case), ("--seed", args.seed)):
            if value is not None:
                raise ValueError(f"{flag} applies only to --preset, not --input")
        with open(args.input) as fobj:
            net, hours = load_scenario_file(fobj)
        if [h.hour for h in hours] != list(range(1, 25)):
            raise ValueError(f"input file must cover hours 1..24, found {[h.hour for h in hours]}")
    if args.line_limit:
        net = apply_line_limits(net, _parse_line_limits(args.line_limit))
    return net, hours


def cmd_run(args) -> int:
    net, hours = _resolve_scenario(args, args.case)
    bus = 3 if args.bus is None else args.bus
    cap = PriceCap(bus, _parse_pi_des("70" if args.pi_des is None else args.pi_des))
    formats = [f.strip() for f in (args.formats or "csv,json").split(",")]
    problems = [f"unknown format {f!r}; expected csv|json"
                for f in formats if f not in ("csv", "json")]
    problems += Grid(net).problems_of(hours, [cap])
    if problems:
        return _fail(*problems)

    run = run_hedge(net, hours, cap)
    report = run.report

    out_dir = Path(args.out or os.environ.get(ENV_OUT, DEFAULT_OUT))
    out_dir.mkdir(parents=True, exist_ok=True)

    if "csv" in formats:
        _atomic_write(out_dir / "hedge_report.csv", _render(write_hedge_csv, report))
        _atomic_write(out_dir / "dispatch_unconstrained.csv",
                      _render(write_dispatch_csv, list(run.unconstrained)))
        _atomic_write(out_dir / "dispatch_hedged.csv",
                      _render(write_dispatch_csv, list(run.hedged)))
    if "json" in formats:
        _atomic_write(out_dir / "hedge_report.json", hedge_report_json(report))
    _atomic_write(out_dir / "trace.txt", render_trace(coordination_trace(report)))

    print(f"total revenue: {format_eur(report.total_revenue_eur)} EUR over "
          f"{report.hours_active} active hours -> {out_dir}")
    for note in settlement_bound_notes(report, hours):
        print(f"info: {note}")

    if report.excluded_hours:
        print(f"warning: {report.warning_count} infeasible hour(s): "
              f"{list(report.excluded_hours)}", file=sys.stderr)
        if not args.allow_infeasible:
            return 1
    return 0


def cmd_sweep(args) -> int:
    pi_values = sorted(float(p) for p in (args.pi or "").split(",") if p.strip())
    if not pi_values:
        print("error: --pi requires at least one value", file=sys.stderr)
        return 2
    cases = [c.strip() for c in (args.cases or "infinite,finite").split(",") if c.strip()]
    net, hours = _resolve_scenario(args)  # each case overrides line limits itself
    bus = 3 if args.bus is None else args.bus
    problems = [f"unknown case {case!r}; expected infinite|finite"
                for case in cases if case not in SWEEP_CASES]
    problems += Grid(net).problems_of(hours, [PriceCap(bus, pi) for pi in pi_values])
    if problems:
        return _fail(*problems)

    result = sweep_pi_des(net, hours, bus, pi_values,
                          {case: SWEEP_CASES[case] for case in cases})

    out_dir = Path(args.out or os.environ.get(ENV_OUT, DEFAULT_OUT))
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "sweep.csv", _render(write_sweep_csv, result))

    for row in result.rows:
        print(f"pi_des={row.pi_des:g} case={row.scenario} "
              f"revenue={format_eur(row.total_revenue_eur)} EUR")
    for warning in result.monotonicity_warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    with open(args.path) as fobj:
        net, hours = load_scenario_file(fobj)
    problems = Grid(net).problems_of(hours)
    if problems:
        _fail(*problems)
        print(f"{len(problems)} violation(s)", file=sys.stderr)
        return 1
    print("ok")
    return 0


def cmd_duality_demo(args) -> int:
    inst = EdInstance(
        offer=GenOffer(bus=1, marginal_cost=args.gen_cost, capacity_mw=args.gen_capacity),
        utility=LoadUtility(bus=1, marginal_utility=args.utility,
                            p_min_mw=args.load_min, p_max_mw=args.load_max),
        cap=args.cap,
    )
    chain = solve_ed_chain(inst)
    res = chain.result
    print(f"unconstrained objective : {chain.objective_unconstrained!r}")
    print(f"capped dual objective   : {chain.objective_capped_dual!r}")
    print(f"flex primal objective   : {chain.objective_with_flex!r}")
    print(f"gap dual vs flex        : {chain.gap_dual_vs_flex:.3e}")
    print(f"gap unconstrained vs flex: {chain.gap_unconstrained_vs_flex:.3e}")
    print(f"dispatch: p_g={res.p_g_mw!r} MW  p_l={res.p_l_mw!r} MW  "
          f"p_flexreq={res.p_flexreq_mw!r} MW")
    print(f"price: lmp={res.lmp_eur_mwh!r} EUR/MWh  "
          f"(unconstrained {chain.lmp_unconstrained!r})")
    if chain.degenerate:
        print("note: degenerate optimum; prices are one valid choice among several")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexhedge",
        description="Price-capped DC optimal power flow and flexibility settlement.")
    # no abbreviated flags: sweep would read --case as --cases, run --pi as --pi-des
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_common(p):
        # defaults stay None so a config file can fill them; the commands
        # resolve the effective fallbacks
        p.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
        p.add_argument("--input", help="scenario file (see README for the format)")
        p.add_argument("--seed", type=int, help="preset scenario seed (default 0)")
        p.add_argument("--bus", type=int, help="price-constrained bus (default 3)")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or {DEFAULT_OUT})")
        p.add_argument("--config", help="config file supplying flag defaults")
        p.add_argument("--line-limit", action="append", default=[],
                       metavar="FROM-TO=MW", help="override one line's limit")

    p_run = command("run", help="two-pass hedge study, writes report artifacts")
    add_common(p_run)
    p_run.add_argument("--case", choices=("infinite", "finite"),
                       help="line-limit case for presets (default infinite)")
    p_run.add_argument("--pi-des", dest="pi_des",
                       help="cap in EUR/MWh; scalar or 24 comma-separated values "
                            "(default 70)")
    p_run.add_argument("--formats", help="comma list among csv,json (default both)")
    p_run.add_argument("--allow-infeasible", action="store_true",
                       help="exit 0 even when some hours are infeasible")
    p_run.set_defaults(func=cmd_run, parser=p_run)

    p_sweep = command("sweep", help="revenue table over cap values and cases")
    add_common(p_sweep)
    p_sweep.add_argument("--pi", help="comma-separated cap values in EUR/MWh")
    p_sweep.add_argument("--cases", help="comma list among infinite,finite")
    p_sweep.set_defaults(func=cmd_sweep, parser=p_sweep)

    p_val = command("validate", help="check a scenario file")
    p_val.add_argument("path")
    p_val.set_defaults(func=cmd_validate)

    p_demo = command("duality-demo",
                     help="single-bus dispatch chain: primal, capped dual, flex primal")
    p_demo.add_argument("--gen-cost", type=float, default=80.0)
    p_demo.add_argument("--gen-capacity", type=float, default=float("inf"))
    p_demo.add_argument("--utility", type=float, default=75.0)
    p_demo.add_argument("--load-min", type=float, default=0.0)
    p_demo.add_argument("--load-max", type=float, default=1.0)
    p_demo.add_argument("--cap", type=float, default=None)
    p_demo.set_defaults(func=cmd_duality_demo)

    return parser


def main(argv=None) -> int:
    """Run one command.  Bad input, an unreadable or unwritable file and a
    solver failure each end in an ``error:`` line and exit status 1; any
    other exception is a defect and keeps its traceback."""
    args = build_parser().parse_args(argv)
    try:
        _apply_config_defaults(args)
        return args.func(args)
    except (ValueError, OSError, SolverFailureError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
