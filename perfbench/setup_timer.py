"""Times fresh starts of finrel, one for each line read from standard input.

    python3 perfbench/setup_timer.py SRC

For each line it reads, it starts a new interpreter that imports finrel from
SRC and builds the CLI parser.  It prints the seconds that took and the
host's slowdown around the start: the mean time of ``CALIBRATION_LOOPS``
calibration loops run just before it and just after it, over
``speed.CALIBRATION_REF_S``.  The benchmark keeps it running as a child for
the whole run.  The starts are
the timer's children, not the benchmark's, so their memory stays out of the
benchmark's ``RUSAGE_CHILDREN`` until the timer exits.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from speed import CALIBRATION_REF_S, calibration_loop

CALIBRATION_LOOPS = 50

START = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import finrel\n"
    "from finrel.cli import build_parser\n"
    "build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def calibrate() -> float:
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_LOOPS):
        calibration_loop()
    return time.perf_counter() - t0


def main() -> int:
    env = dict(os.environ, PYTHONPATH=sys.argv[1])
    for _ in sys.stdin:
        before = calibrate()
        done = subprocess.run([sys.executable, "-c", START], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        after = calibrate()
        slowdown = (before + after) / (2 * CALIBRATION_LOOPS) / CALIBRATION_REF_S
        print(float(done.stdout), slowdown, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
