"""Machine-speed calibration for timings on a shared CPU.

On a machine shared with other tenants, the speed of this process's core
drifts by 30% or more over minutes, and CPU time drifts with wall time, so
medians of raw wall time from runs a minute apart disagree by more than any
useful regression bound.  The benchmark therefore runs a fixed calibration
kernel before and after every timed interval and scales the interval by
``REFERENCE_S`` over the mean of the two kernel times.  Pairing each interval
with its own kernel runs, even a 45 ms study, tracks bursts of contention:
sharing one kernel run among the intervals of each 0.5 s doubled the spread
of ``paper3-run``'s median and set-up time.  The kernel is the
benchmark's own code: a mix of small dense solves and dict-heavy Python, like
the studies, and independent of flexhedge, so a change to flexhedge moves the
scaled times exactly as much as it moves the raw ones.

A cold set-up runs in a process of its own, which may run on another core
than the benchmark process, so it is scaled by kernel runs in its own process
right after it (``scale_after``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the 2-core Intel Xeon the benchmark was written on;
# it only fixes the scale, so scaled times read as seconds at that speed.
REFERENCE_S = 0.015

_N = 40
_MATRIX = _N * np.eye(_N) + 1.0 / (1.0 + np.abs(np.subtract.outer(np.arange(_N), np.arange(_N))))
_RHS = np.ones(_N)
_ROUNDS = 400


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(_ROUNDS):
        acc += float(np.linalg.solve(_MATRIX, _RHS)[i % _N])
        table = {("k", j): j * 0.5 for j in range(_N)}
        acc += sum(table.values())
    elapsed = time.perf_counter() - start
    if not acc > 0:  # consumes the result so no step can be skipped
        raise ArithmeticError("calibration kernel produced no result")
    return elapsed


def scale_after(seconds: float) -> float:
    """Scales an interval that has just ended by the median of three kernel runs."""
    return seconds * REFERENCE_S / statistics.median(kernel_seconds() for _ in range(3))


class SpeedScale:
    """Scales each timed interval by the kernel runs on either side of it."""

    def __init__(self):
        self.kernel_s = [kernel_seconds()]

    def scale(self, seconds: float) -> float:
        """Call right after the interval ends; returns its scaled length."""
        self.kernel_s.append(kernel_seconds())
        return seconds * REFERENCE_S / ((self.kernel_s[-2] + self.kernel_s[-1]) / 2)
