"""flexhedge benchmark: whole studies in a closed loop, one at a time, on one thread.

    python3 bench/run.py --workload paper3-run --seed 1 --seconds 30 --trace 0

Run from a checkout's root; flexhedge is imported from its ``src`` directory.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run.  The line before it (``{"detail": ...}``) records the
environment, LP shape, sample counts and artifact hashes.  See README.md.
"""

import os

# pinned before numpy is first imported; unpinned BLAS threading made a 30-bus
# solve 14x slower on a 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUPS = 5  # least number of cold set-ups per run; setup_s is their median
SETUP_SECONDS = 4  # more set-ups run until this much time has passed
MIN_STUDIES = 21  # enough for a tail percentile (the median) with 10 samples beyond it
MIN_TRACED_STUDIES = 10  # untraced and traced together
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10
DEADLINE_S = 140  # no study starts later than this after process start

STARTED = time.perf_counter()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper3-run", "paper3-sweep", "mesh30-day"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cold_setups(name, seed, out, checks, expected) -> list[tuple[float, float]]:
    """(wall, scaled) seconds of cold set-ups, each in a fresh interpreter.

    Interpreter start is excluded: ``setup_once.py`` times itself from its
    first statement.  Each set-up's study output must have the fingerprint
    ``expected``, the warm-up study's.
    """
    samples = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(samples) < SETUPS or time.perf_counter() < deadline:
        done = subprocess.run([sys.executable, str(ROOT / "bench" / "setup_once.py"),
                               name, str(seed), str(out)], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=60)
        elapsed, scaled, output = done.stdout.splitlines()[-1].split()
        samples.append((float(elapsed), float(scaled)))
        checks.record(output == expected,
                      f"cold set-up {len(samples)} differs from the warm-up study")
    return samples


def closed_loop(workload, seconds, min_studies, checks, reference, speed, tracer=None):
    """Study after study until ``seconds`` pass and ``min_studies`` are done.

    Returns lists of (wall, scaled) study times, untraced and traced.  With a
    tracer, studies alternate between untraced and traced, so both see the
    same machine load.  Each study's output is compared with the warm-up
    study's after its timer stops; a mismatch counts as a failed operation.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None and len(plain) > len(traced):
            with tracer:
                result, elapsed = tracer.study(workload.study)
            traced.append((elapsed, speed.scale(elapsed)))
        else:
            start = time.perf_counter()
            result = workload.study()
            elapsed = time.perf_counter() - start
            plain.append((elapsed, speed.scale(elapsed)))
        done = len(plain) + len(traced)
        checks.record(workload.output(result) == reference,
                      f"study {done} differs from the warm-up study")
        now = time.perf_counter()
        if now >= deadline and (done >= min_studies or now - STARTED >= DEADLINE_S):
            return plain, traced


def tail(times):
    """Highest listed percentile (nearest rank) with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 50, ordered[math.ceil(n / 2) - 1]


def environment() -> dict:
    import numpy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fobj:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fobj
                              if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "MKL_NUM_THREADS": os.environ["MKL_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.machine(),
    }


def layer_metrics(summary, facts, checks, untraced, traced) -> dict:
    """Per-study figures from the traced studies, plus the check pass's counts.

    Span times are wall seconds; the tracing overhead compares scaled times.
    """
    n = summary["studies"]
    wall_traced = [wall for wall, _ in traced]
    self_s, calls, inclusive = summary["self_s"], summary["calls"], summary["inclusive_s"]
    solves = calls.get("simplex.solve_program", 0)
    iterations = summary["iterations"]
    layers_s = sum(v for layer, v in self_s.items() if layer != "bench")

    def per(value):
        return value / n

    def calls_of(prefix):
        return sum(v for name, v in calls.items() if name.startswith(prefix))

    return {
        "simplex.solve_s": (per(self_s.get("simplex", 0.0)), "s"),
        "simplex.iterations": (per(iterations), "count"),
        "simplex.iterations_per_solve": (iterations / solves, "count"),
        "simplex.s_per_iteration": (self_s.get("simplex", 0.0) / iterations, "s"),
        "simplex.degenerate_frac": (summary["degenerate"] / solves, "ratio"),
        "lp.solves": (per(calls.get("lp.solve", 0)), "count"),
        "lp.validate_s": (per(self_s.get("lp", 0.0)), "s"),
        "lp.kkt_s": (checks.kkt_s, "s"),
        "lp.kkt_max_residual": (checks.kkt_max_residual, "abs"),
        "lp.rows": (facts["lp"]["rows"], "count"),
        "lp.columns": (facts["lp"]["columns"], "count"),
        "opf.build_s": (per(self_s.get("opf.build", 0.0)), "s"),
        "opf.build_calls": (per(calls.get("opf.build_opf", 0)), "count"),
        "opf.hour_self_s": (per(self_s.get("opf.hour", 0.0)), "s"),
        "opf.series_self_s": (per(self_s.get("opf.series", 0.0)), "s"),
        "model.validate_s": (per(self_s.get("model", 0.0)), "s"),
        "model.validate_calls": (per(calls_of("model.")), "count"),
        "scenario.generate_s": (per(self_s.get("scenario", 0.0)), "s"),
        "hedging.run_hedge_s": (per(inclusive.get("hedging.run_hedge", 0.0)), "s"),
        "hedging.run_hedge_calls": (per(calls.get("hedging.run_hedge", 0)), "count"),
        "hedging.self_s": (per(self_s.get("hedging", 0.0)), "s"),
        "hedging.render_s": (per(self_s.get("render", 0.0)), "s"),
        "hedging.unique_solve_ratio": (facts["lp"]["unique_programs"] / facts["lp"]["solves"],
                                       "ratio"),
        "cli.self_s": (per(self_s.get("cli", 0.0)), "s"),
        "cli.artifact_bytes": (facts["artifact_bytes"], "B"),
        "bench.self_s": (per(self_s.get("bench", 0.0)), "s"),
        "trace.study_s": (statistics.median(wall_traced), "s"),
        "trace.untraced_study_s": (statistics.median(wall for wall, _ in untraced), "s"),
        "trace.overhead_frac": (statistics.median(scaled for _, scaled in traced)
                                / statistics.median(scaled for _, scaled in untraced) - 1,
                                "ratio"),
        "trace.accounted_frac": (layers_s / sum(wall_traced), "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flexhedge" / "__init__.py").is_file():
        print(f"error: no flexhedge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flexhedge
    if Path(flexhedge.__file__).resolve().parent != SRC / "flexhedge":
        print(f"error: imported flexhedge from {flexhedge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from calibration import SpeedScale
    from checks import Checks
    from spans import Tracer
    from workloads import WORKLOADS, fingerprint, quiet

    out = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, out)
        checks = Checks()

        with quiet():
            workload.prepare()
            reference = workload.output(workload.study())  # the untimed warm-up study

        # setup_s is an end-to-end metric, so a traced run skips the set-ups
        setup_samples = [] if args.trace else cold_setups(args.workload, args.seed, out,
                                                          checks, fingerprint(reference))
        speed = SpeedScale()
        with quiet():
            tracer = Tracer() if args.trace else None
            untraced, traced = closed_loop(workload, args.seconds,
                                           MIN_TRACED_STUDIES if args.trace else MIN_STUDIES,
                                           checks, reference, speed, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        facts = workload.check(checks, reference)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    wall = [w for w, _ in untraced]
    scaled = [x for _, x in untraced]
    percentile, tail_s = tail(scaled)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "studies": len(untraced),
        "traced_studies": len(traced),
        "tail_percentile": percentile,
        "wall_study_s": statistics.median(wall),
        "wall_study_s_tail": tail(wall)[1],
        "setup_samples_s": setup_samples,
        "kernel_median_s": statistics.median(speed.kernel_s),
        "checks": {"attempted": checks.attempted, "failed": len(checks.failures)},
        **facts,
    }
    if args.trace:
        metrics = layer_metrics(tracer.summary(), facts, checks, untraced, traced)
    else:
        metrics = {
            "study_s": (statistics.median(scaled), "s"),
            "study_s_tail": (tail_s, "s"),
            "setup_s": (statistics.median(scaled for _, scaled in setup_samples), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
