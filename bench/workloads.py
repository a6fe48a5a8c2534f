"""The benchmark's three workloads: each prepares its inputs from the seed, runs
one study per ``study`` call and checks a study's output outside the timed
region.

Why each workload exists, and which metrics it should move, is in README.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
from pathlib import Path

from flexhedge import cli, hedging
from flexhedge.model import validate_market_data, validate_network, validate_price_cap

from checks import Checks, capture, unique_programs
from mesh import synthetic_mesh

SWEEP_CAPS = tuple(range(60, 81))  # EUR/MWh, 21 values
RUN_ARTIFACTS = ("hedge_report.csv", "hedge_report.json", "dispatch_unconstrained.csv",
                 "dispatch_hedged.csv", "trace.txt")


class _Discard:
    """A stdout that drops what the CLI prints during a study."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def quiet():
    return contextlib.redirect_stdout(_Discard())


def fingerprint(output) -> str:
    """SHA-256 of a study output's repr, to compare outputs across processes."""
    return hashlib.sha256(repr(output).encode()).hexdigest()


def _shape(captured) -> dict:
    n = len(captured)
    return {
        "solves": n,
        "rows": sum(len(p.rows) for p, _ in captured) / n,
        "columns": sum(len(p.columns) for p, _ in captured) / n,
        "iterations_per_solve": sum(s.iterations for _, s in captured) / n,
        "unique_programs": unique_programs(captured),
    }


class CliWorkload:
    """A CLI command run in-process through ``cli.main``; output is its exit
    code plus the SHA-256 of every artifact it writes."""

    def __init__(self, command: list[str], artifacts: tuple[str, ...], out: Path):
        self.out = out
        self.argv = command + ["--out", str(out)]
        self.artifacts = artifacts

    def prepare(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)

    def study(self) -> int:
        return cli.main(self.argv)

    def output(self, code: int) -> tuple:
        return (code,) + tuple(
            hashlib.sha256((self.out / name).read_bytes()).hexdigest()
            for name in self.artifacts)

    def check(self, checks: Checks, reference: tuple) -> dict:
        with capture() as (solves, runs), quiet():
            code = self.study()
        checks.record(code == 0, f"{self.argv[0]} exited {code}")
        checks.record(self.output(code) == reference, "artifacts differ from the warm-up study")
        checks.solves(solves)
        for run, cap in runs:
            checks.cap_rule(run.report, cap)
        sizes = {name: (self.out / name).stat().st_size for name in self.artifacts}
        return {
            "lp": _shape(solves),
            "run_hedge_calls": len(runs),
            "artifact_bytes": sum(sizes.values()),
            "artifact_sha256": dict(zip(self.artifacts, reference[1:])),
        }


class Paper3Run(CliWorkload):
    def __init__(self, seed: int, out: Path):
        super().__init__(["run", "--preset", "paper-3bus", "--case", "finite",
                          "--pi-des", "70", "--seed", str(seed)], RUN_ARTIFACTS, out)


class Paper3Sweep(CliWorkload):
    def __init__(self, seed: int, out: Path):
        super().__init__(["sweep", "--preset", "paper-3bus", "--pi",
                          ",".join(str(p) for p in SWEEP_CAPS),
                          "--cases", "infinite,finite", "--seed", str(seed)],
                         ("sweep.csv",), out)

    def check(self, checks: Checks, reference: tuple) -> dict:
        facts = super().check(checks, reference)
        with open(self.out / "sweep.csv", newline="") as fobj:
            rows = list(csv.DictReader(fobj))
        checks.record(len(rows) == 2 * len(SWEEP_CAPS), f"sweep.csv has {len(rows)} rows")
        for case in ("infinite", "finite"):
            revenue = [float(r["total_revenue_eur"]) for r in rows if r["scenario"] == case]
            checks.record(all(b <= a + 1e-9 for a, b in zip(revenue, revenue[1:])),
                          f"{case}: revenue rises with the cap: {revenue}")
        return facts


class Mesh30Day:
    """``run_hedge`` over one day of the seeded 30-bus mesh; output is the run."""

    def __init__(self, seed: int, out: Path):
        self.seed = seed

    def prepare(self) -> None:
        self.mesh = synthetic_mesh(self.seed)
        net = self.mesh.network
        problems = validate_network(net) + validate_price_cap(net, self.mesh.cap)
        for data in self.mesh.hours:
            problems += validate_market_data(net, data)
        if problems:
            raise ValueError(f"invalid synthetic mesh: {problems}")

    def study(self):
        return hedging.run_hedge(self.mesh.network, self.mesh.hours, self.mesh.cap)

    def output(self, run):
        return run

    def check(self, checks: Checks, reference) -> dict:
        with capture() as (solves, runs):
            run = self.study()
        checks.record(run == reference, "hedge run differs from the warm-up study")
        checks.solves(solves)
        active = checks.cap_rule(run.report, self.mesh.cap)
        checks.record(active == self.mesh.hours_binding,
                      f"{active} active hours, expected {self.mesh.hours_binding}")
        checks.oracle(solves)
        return {
            "lp": _shape(solves),
            "run_hedge_calls": len(runs),
            "artifact_bytes": 0,
            "cap_eur_mwh": self.mesh.cap.cap_eur_per_mwh,
            "cap_bus": self.mesh.cap.bus,
            "hours_binding": self.mesh.hours_binding,
        }


WORKLOADS = {
    "paper3-run": Paper3Run,
    "paper3-sweep": Paper3Sweep,
    "mesh30-day": Mesh30Day,
}
