"""In-memory spans around calls into flexhedge's public functions.

Entering a ``Tracer`` rebinds every module-level name in the ``flexhedge``
package that refers to a traced function, so calls made through the package's
own imports are timed as well as calls from the benchmark.  Each span records
its layer, start, end and the index of its parent span; a layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, public function) -> layer.  The render layer groups the writers of
# every artifact, whichever module defines them.
TRACED = {
    ("cli", "main"): "cli",
    ("scenario", "preset_spec"): "scenario",
    ("scenario", "generate_scenario"): "scenario",
    ("scenario", "apply_line_limits"): "scenario",
    ("model", "validate_network"): "model",
    ("model", "validate_market_data"): "model",
    ("model", "validate_price_cap"): "model",
    ("hedging", "run_hedge"): "hedging",
    ("hedging", "sweep_pi_des"): "hedging",
    ("hedging", "coordination_trace"): "hedging",
    ("hedging", "settlement_bound_notes"): "hedging",
    ("hedging", "write_hedge_csv"): "render",
    ("hedging", "hedge_report_json"): "render",
    ("hedging", "render_trace"): "render",
    ("hedging", "write_sweep_csv"): "render",
    ("opf", "write_dispatch_csv"): "render",
    ("opf", "solve_opf_series"): "opf.series",
    ("opf", "solve_opf_hour"): "opf.hour",
    ("opf", "build_opf"): "opf.build",
    ("lp", "solve"): "lp",
    ("simplex", "solve_program"): "simplex",
}

ROOT = "bench"


def rebind(original, replacement) -> list[tuple]:
    """Point every flexhedge module-level name bound to ``original`` at ``replacement``.

    Returns the (module, name, original) triples that ``restore`` undoes.
    """
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "flexhedge" and not modname.startswith("flexhedge."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, original))
    return patched


def restore(patched: list[tuple]) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, layer, start, end, parent, result facts)
        self.roots: list[int] = []
        self._stack = [-1]
        self._patched: list[tuple] = []

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        solver = layer == "simplex"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, None)
            if solver:
                spans[idx] = (name, layer, start, end, parent,
                              (result.iterations, result.degenerate))
            return result

        return traced

    def __enter__(self):
        for (module, fname), layer in TRACED.items():
            original = getattr(sys.modules[f"flexhedge.{module}"], fname)
            wrapper = self._wrap(f"{module}.{fname}", layer, original)
            self._patched += rebind(original, wrapper)
        return self

    def __exit__(self, *exc):
        restore(self._patched)
        self._patched.clear()

    def study(self, fn):
        """Run ``fn`` as one study under a root span; returns (result, seconds)."""
        idx = len(self.spans)
        self.spans.append(None)
        self.roots.append(idx)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT, ROOT, start, end, -1, None)
        return result, end - start

    def summary(self) -> dict:
        """Totals over all recorded studies, keyed by layer and by function."""
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = defaultdict(float)
        inclusive_s = defaultdict(float)
        calls = defaultdict(int)
        iterations = degenerate = 0
        for i, (name, layer, start, end, parent, facts) in enumerate(self.spans):
            self_s[layer] += end - start - covered[i]
            inclusive_s[name] += end - start
            calls[name] += 1
            if facts is not None:
                iterations += facts[0]
                degenerate += facts[1]
        return {"self_s": dict(self_s), "inclusive_s": dict(inclusive_s),
                "calls": dict(calls), "iterations": iterations,
                "degenerate": degenerate, "studies": len(self.roots)}
