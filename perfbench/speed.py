"""The machine's current speed, read from a fixed reference routine.

The reference machine is a shared VM whose cores move between fast and
slow states, up to about 1.6 times apart, for stretches of a few seconds
to many minutes. Within a few seconds every kind of code slows by nearly
the same factor, so the benchmark runs a fixed reference routine right
after every item it times and scales each latency by how long the
routine took around that item:

    scaled latency = latency * UNIT_S / (reference seconds per unit near the item)

The routine uses neither thetareg nor the workload's inputs: a
``Fraction`` loop (pure-Python objects, like the collapse and contfrac
layers) and one numpy FFT (like the grid layer), in about equal parts.
UNIT_S is its typical time on the reference machine, so scaled times read
as that machine's seconds. Over two to three minutes of each workload's
items, the spread (interquartile range over median) of single-pass times
fell from 0.08 to 0.20 unscaled to 0.03 to 0.05 scaled. The routine
tracks pure-Python work best: numpy work on large arrays slows a little
less, so spectrum_deep's scaled times still read a few per cent lower
while the machine is slow.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

import numpy as np

UNIT_S = 2.1e-3      # seconds per unit on the reference machine
SHARE = 0.15         # reference time after an item, as a share of its latency
WINDOW_S = 1.0       # units this close to an interval set its speed

_FFT_INPUT = np.exp(2j * np.pi * np.random.default_rng(0).random(1 << 15))


def unit() -> None:
    """One unit of reference work: fixed, and about 2 ms long."""
    acc = Fraction(0)
    for i in range(1, 200):
        acc = (acc + Fraction(1, i)) % 1
    np.fft.ifft(_FFT_INPUT)


class SpeedLog:
    """Timed runs of the reference routine, and the speed they imply."""

    def __init__(self):
        self._ends: list[float] = []     # perf_counter at the end of each sample
        self._starts: list[float] = []
        self._units: list[int] = []

    def sample(self, budget_s: float) -> None:
        """Run whole units until ``budget_s`` has passed (at least one)."""
        t0 = time.perf_counter()
        n = 0
        while True:
            unit()
            n += 1
            t1 = time.perf_counter()
            if t1 - t0 >= budget_s:
                break
        self.record(t0, t1, n)

    def record(self, start: float, end: float, units: int) -> None:
        """Note that ``units`` units ran from ``start`` to ``end``."""
        self._starts.append(start)
        self._ends.append(end)
        self._units.append(units)

    def unit_s(self, start: float, end: float) -> float:
        """Seconds per unit over the samples that end within WINDOW_S
        before ``start`` and begin within WINDOW_S after ``end``; the
        nearest sample on either side when none does."""
        lo = bisect.bisect_left(self._ends, start - WINDOW_S)
        hi = bisect.bisect_right(self._starts, end + WINDOW_S)
        lo = min(lo, max(bisect.bisect_right(self._ends, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_left(self._starts, end) + 1,
                         len(self._starts)))
        if lo >= hi:
            raise ValueError("no reference sample near the interval")
        seconds = sum(self._ends[k] - self._starts[k] for k in range(lo, hi))
        return seconds / sum(self._units[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """(end - start) in reference-machine seconds."""
        return (end - start) * UNIT_S / self.unit_s(start, end)
