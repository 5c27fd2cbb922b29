"""The machine-speed gauge that end-to-end item timings are scaled by.

A shared host's speed drifts: on the 2-vCPU virtual machine the baseline
was recorded on, the same item list ran up to 1.9x faster or slower for
stretches of seconds to minutes, with CPU time following wall time, so
neither 24 s runs nor the fastest of several rounds held the figures
within their bounds.  The gauge times a fixed pure-Python computation
(exact fractions, tuples and dict updates, the kind of work tropnc's inner
loops do) just before every item.  An item's scaled time is its wall time
times NOMINAL_S over the median of the WINDOW readings around it: the
time the item would take on a machine where the reference takes NOMINAL_S.
A change that makes tropnc faster shortens the wall time and leaves the
reference alone, so it shows in the scaled time in full.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# A round figure for the median duration of `reference()` on the machine
# the baseline was recorded on (Intel Xeon, 2 vCPUs, Python 3.11), where
# medians of 4 to 5.5 ms were measured.
NOMINAL_S = 0.005
WINDOW = 4


def reference() -> int:
    acc = Fraction(0)
    counts: dict[tuple[int, int], int] = {}
    for i in range(1, 700):
        f = Fraction(i % 17 + 1, i % 13 + 1)
        acc += f * f
        key = (i % 101, i % 7)
        counts[key] = counts.get(key, 0) + 1
    return acc.numerator % 97 + len(counts)


class Gauge:
    """Reference durations read before every item and once after the last;
    reading i comes just before item i."""

    def __init__(self):
        self.readings: list[float] = []

    def sample(self):
        start = time.perf_counter()
        reference()
        self.readings.append(time.perf_counter() - start)

    def scale(self, i: int) -> float:
        """NOMINAL_S over the median of the WINDOW readings around item i
        (two before it, two after it): above 1 on a fast stretch."""
        return NOMINAL_S / statistics.median(self.readings[max(i - 1, 0):i + WINDOW - 1])


def scale_now() -> float:
    """NOMINAL_S over the median of WINDOW + 1 readings taken now."""
    gauge = Gauge()
    for _ in range(WINDOW + 1):
        gauge.sample()
    return NOMINAL_S / statistics.median(gauge.readings)
