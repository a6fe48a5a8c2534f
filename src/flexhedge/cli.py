"""Batch front-end: run hedging studies, cap sweeps, and input validation.

Artifacts are plot-ready CSV/JSON series written atomically into the output
directory; nothing interactive.  A config file (same sectioned text format as
scenario files, ``key = value`` lines) can stand in for command-line flags;
flags win on conflict.  The only environment variable honored is
``FLEXHEDGE_OUT`` (default output directory).
"""

from __future__ import annotations

import argparse
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
from .model import (
    GenOffer,
    LoadUtility,
    PriceCap,
    validate_market_data,
    validate_network,
    validate_price_cap,
)
from .opf import write_dispatch_csv
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


def _input_problems(net, hours, caps) -> list[str]:
    """Every violation in the network, the hours and the caps, each stated once."""
    problems = validate_network(net)
    for cap in caps:
        problems += validate_price_cap(net, cap)
    for data in hours:
        problems += validate_market_data(net, data)
    return list(dict.fromkeys(problems))


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


def _apply_config_defaults(args: argparse.Namespace, section: str) -> None:
    if not args.config:
        return
    values = _load_config_file(args.config).get(section, {})
    mapping = {
        "preset": ("preset", str),
        "input": ("input", str),
        "case": ("case", str),
        "pi_des": ("pi_des", str),
        "pi": ("pi", str),
        "cases": ("cases", str),
        "bus": ("bus", int),
        "seed": ("seed", int),
        "out": ("out", str),
        "formats": ("formats", str),
        "allow_infeasible": ("allow_infeasible", lambda v: v.lower() in ("1", "true", "yes")),
    }
    for key, raw in values.items():
        if key not in mapping:
            raise ScenarioError(f"config: unknown key {key!r} in [{section}]")
        attr, convert = mapping[key]
        if getattr(args, attr, None) in (None, False):
            try:
                setattr(args, attr, convert(raw))
            except ValueError:
                raise ScenarioError(
                    f"config: bad value {raw!r} for {key!r} in [{section}]") from None


def _resolve_defaults(args) -> None:
    args.case = args.case or "infinite"
    args.seed = 0 if args.seed is None else args.seed
    args.bus = 3 if args.bus is None else args.bus
    if getattr(args, "pi_des", None) is None:
        args.pi_des = "70"


def _resolve_scenario(args) -> tuple:
    """Network and 24-hour series from either a preset or an input file."""
    if bool(args.preset) == bool(args.input):
        raise ValueError("exactly one of --preset or --input is required")
    if args.preset:
        spec = preset_spec(args.preset, case=args.case, seed=args.seed)
        scenario = generate_scenario(spec)
        net, hours = scenario.network, scenario.hours
    else:
        with open(args.input) as fobj:
            net, hours = load_scenario_file(fobj)
        if [h.hour for h in hours] != list(range(1, 25)):
            raise ValueError(f"input file must cover hours 1..24, found {[h.hour for h in hours]}")
    if args.line_limit:
        net = apply_line_limits(net, _parse_line_limits(args.line_limit))
    return net, hours


def cmd_run(args) -> int:
    _apply_config_defaults(args, "run")
    _resolve_defaults(args)
    net, hours = _resolve_scenario(args)
    cap = PriceCap(args.bus, _parse_pi_des(args.pi_des))
    problems = _input_problems(net, hours, [cap])
    if problems:
        return _fail(*problems)

    run = run_hedge(net, hours, cap)
    report = run.report

    out_dir = Path(args.out or os.environ.get(ENV_OUT, DEFAULT_OUT))
    out_dir.mkdir(parents=True, exist_ok=True)
    formats = tuple((args.formats or "csv,json").split(","))

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
    _apply_config_defaults(args, "sweep")
    _resolve_defaults(args)
    pi_values = sorted(float(p) for p in (args.pi or "").split(",") if p.strip())
    if not pi_values:
        print("error: --pi requires at least one value", file=sys.stderr)
        return 2
    cases = [c.strip() for c in (args.cases or "infinite,finite").split(",") if c.strip()]
    args.case = "infinite"  # sweep scenarios override line limits themselves
    net, hours = _resolve_scenario(args)
    problems = [f"unknown case {case!r}; expected infinite|finite"
                for case in cases if case not in SWEEP_CASES]
    problems += _input_problems(net, hours, [PriceCap(args.bus, pi) for pi in pi_values])
    if problems:
        return _fail(*problems)

    result = sweep_pi_des(net, hours, args.bus, pi_values,
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
    problems = _input_problems(net, hours, ())
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
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        # defaults stay None so a config file can fill them; effective
        # fallbacks are resolved in _resolve_defaults
        p.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
        p.add_argument("--input", help="scenario file (see README for the format)")
        p.add_argument("--case", choices=("infinite", "finite"),
                       help="line-limit case for presets (default infinite)")
        p.add_argument("--seed", type=int, help="scenario seed (default 0)")
        p.add_argument("--bus", type=int, help="price-constrained bus (default 3)")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or {DEFAULT_OUT})")
        p.add_argument("--config", help="config file supplying flag defaults")
        p.add_argument("--line-limit", action="append", default=[],
                       metavar="FROM-TO=MW", help="override one line's limit")

    p_run = sub.add_parser("run", help="two-pass hedge study, writes report artifacts")
    add_common(p_run)
    p_run.add_argument("--pi-des", dest="pi_des",
                       help="cap in EUR/MWh; scalar or 24 comma-separated values "
                            "(default 70)")
    p_run.add_argument("--formats", help="comma list among csv,json (default both)")
    p_run.add_argument("--allow-infeasible", action="store_true",
                       help="exit 0 even when some hours are infeasible")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="revenue table over cap values and cases")
    add_common(p_sweep)
    p_sweep.add_argument("--pi", help="comma-separated cap values in EUR/MWh")
    p_sweep.add_argument("--cases", help="comma list among infinite,finite")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("path")
    p_val.set_defaults(func=cmd_validate)

    p_demo = sub.add_parser("duality-demo",
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
        return args.func(args)
    except (ValueError, OSError, SolverFailureError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
