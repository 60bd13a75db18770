"""The host's speed, sampled while finrel runs.

Other programs on a shared host slow every program on it, by up to a factor
of two, in phases that last from seconds to a minute.  A ``SpeedSampler``
interrupts the measured code every ``INTERVAL_S`` seconds and times a short,
fixed calibration loop of the benchmark's own code.  The mean of those
samples over an operation, divided by ``CALIBRATION_REF_S``, is how much
slower than the reference the host ran during it; dividing the operation's
time by that factor gives its time at reference speed.  The time spent in
the sampler is kept apart so that it can be taken out of what it
interrupted.

The calibration loop never changes with finrel, so a change to finrel moves
only the operation's time, never the divisor.
"""

from __future__ import annotations

import signal
import time

from workloads import idempotent_power_rows

INTERVAL_S = 0.02

# Fixed relations on 7 points whose idempotent powers the loop computes.
CALIBRATION_ROWS = (
    (0b0000011, 0b0000110, 0b0001100, 0b0011000, 0b0110000, 0b1100000, 0b1000001),
    (0b0000010, 0b0000100, 0b0001000, 0b0010000, 0b0100000, 0b1000000, 0b0000001),
    (0b1010101, 0b0000100, 0b0100000, 0b0000001, 0b0010010, 0b1000000, 0b0001000),
)

# Mean time of one calibration loop, sampled during finrel's operations, in
# the quietest phases seen on the host where the benchmark was written
# (2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6).  It only sets the
# scale: at this speed a corrected time equals the measured one.
CALIBRATION_REF_S = 175e-6


def calibration_loop() -> None:
    for rows in CALIBRATION_ROWS:
        idempotent_power_rows(rows)


class SpeedSampler:
    """Times ``calibration_loop`` on a wall-clock interval timer.

    The samples run in the main thread, between the bytecodes of whatever it
    is running, so they share its core.  ``stolen_s`` is the summed time of
    the sampler's own handler calls.
    """

    def __init__(self) -> None:
        self.count = 0
        self.sample_s = 0.0
        self.stolen_s = 0.0
        self._previous = None

    def sample(self, *signal_args) -> None:
        """Time one calibration loop; the timer's signal handler."""
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.count += 1
        self.sample_s += t1 - t0
        self.stolen_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float, float]:
        return self.count, self.sample_s, self.stolen_s

    def clock(self) -> float:
        """``time.perf_counter`` without the sampler's own time."""
        return time.perf_counter() - self.stolen_s


def slowdown(before: tuple[int, float, float], after: tuple[int, float, float]) -> float:
    """The host's slowdown against the reference between two marks, at
    least one sample apart."""
    count, sample_s = after[0] - before[0], after[1] - before[1]
    return sample_s / count / CALIBRATION_REF_S
