"""One cold set-up of a workload, timed from inside a fresh interpreter.

    python3 bench/setup_once.py WORKLOAD SEED OUT_DIR

``run.py`` starts this once per set-up sample, with the thread pins already
in its environment.  The timed window covers importing flexhedge (and, on the
first solve, numpy), generating and validating the workload's inputs, and
its first study, so lazy imports and every other first-call cost count.
Besides the modules a study imports anyway, the window holds only the
benchmark's own small modules and, on ``mesh30-day``, ``flexhedge.cli``.
The last line of standard output gives the seconds taken, those seconds
speed-scaled by kernel runs in this process (see ``calibration.py``), and the
study output's fingerprint; all three are taken after the timed window.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, fingerprint, quiet  # noqa: E402


def main() -> None:
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = WORKLOADS[name](seed, out)
    with quiet():
        workload.prepare()
        result = workload.study()
    elapsed = time.perf_counter() - START
    from calibration import scale_after
    print(elapsed, scale_after(elapsed), fingerprint(workload.output(result)))


if __name__ == "__main__":
    main()
