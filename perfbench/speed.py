"""Normalise wall times by the machine's current speed.

On the shared 2-vCPU machine the benchmark was tuned on, the same Python
work takes up to 70% longer in some stretches of tens of seconds than in
others.  No statistic over one run removes a drift that long.
So every measured interval is scaled by REFERENCE_S / c.  Here c is the time
of a fixed calibration kernel, read just before and just after the interval.
The kernel mixes the three kinds of work the package does: big-integer
loops, `Fraction` arithmetic, and building and dumping containers.  It
shares no code with the package, so no change to the package moves it.
Normalised times are in reference seconds: the wall time the interval would
have taken with the kernel at REFERENCE_S.
"""

import json
import statistics
import time
from fractions import Fraction

# the kernel's time when the reference machine is uncontended
REFERENCE_S = 0.0014
REFRESH_S = 0.1


def kernel() -> int:
    acc = 0
    for i in range(8000):
        acc += (i * 1234567891011) // 7 % 1000
    q = Fraction(0)
    for i in range(1, 60):
        q += Fraction(i, i + 3) * Fraction(i + 1, 7)
    table = {i: [i, str(i), (i, i * i)] for i in range(200)}
    return acc + q.denominator % 7 + len(json.dumps(table))


def calibrate(reps: int = 3) -> float:
    """Median wall time of `reps` kernel runs."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Speed:
    """The latest kernel time, refreshed once it is REFRESH_S old."""

    def __init__(self):
        self._kernel_s = calibrate()
        self._at = time.perf_counter()

    def kernel_s(self) -> float:
        if time.perf_counter() - self._at >= REFRESH_S:
            self._kernel_s = calibrate()
            self._at = time.perf_counter()
        return self._kernel_s

    def timed(self, fn, *args):
        """(result, wall seconds, scale) of fn(*args).

        Wall seconds times scale are the interval in reference seconds.
        """
        before = self.kernel_s()
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        after = self.kernel_s()
        return result, seconds, REFERENCE_S / ((before + after) / 2)
