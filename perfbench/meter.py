"""Round timing, calibrated against a fixed kernel.

On a shared machine the CPU's speed swings: on the 2-core reference
machine it halves for seconds at a time while other tenants run, with
CPU time still equal to wall time and no steal time recorded.  Raw
wall-clock medians of identical runs differed by 70% there.

So every timed stretch is bracketed by readings of a calibration kernel:
a fixed computation in pure Python, written here and independent of the
program, so no change to the program moves it.  It mixes exact rational
elimination with dict and tuple work: on the reference machine the first
slows by 1.9 times in the slow phases and the second by 1.6, while the
program's layers slow by 1.7 to 1.8.  A
round (a set-up, a repetition or a replay) is cut into segments of about
``SEGMENT_S`` seconds at the boundaries between program calls; a reading
is taken at each cut, outside the timed segments.  A segment's time is
scaled by ``KERNEL_REFERENCE_S`` over the mean of its two readings, and a
round's time is the sum of its scaled segments: seconds at the reference
speed.
"""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# seconds one kernel run takes on the reference machine (2-core Intel Xeon
# VM, Python 3.11) when other tenants leave it alone
KERNEL_REFERENCE_S = 0.0165
SEGMENT_S = 0.3


_rng = random.Random(5)
MATRIX = tuple(tuple(Fraction(_rng.randrange(-9, 10)) for _ in range(15)) for _ in range(14))


def kernel():
    """Gauss-Jordan elimination of a fixed 14 x 15 integer matrix over Q,
    then counting 25000 tuple keys in a dict."""
    rows = [list(row) for row in MATRIX]
    n = len(rows)
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    counts = {}
    for i in range(25000):
        k = (i * 7919) % 100003
        counts[k, k & 255] = counts.get((k, k & 255), 0) + 1


def kernel_seconds():
    """One timed kernel run.  The cyclic garbage collector is paused for it,
    so that a collection of the program's heap is not charged to it."""
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        gc.enable()


class Meter:
    """Raw and calibrated time of each round, with the kernel readings."""

    def __init__(self):
        self.rounds: list[tuple[str, float, float]] = []  # (kind, raw s, scaled s)
        self.readings = [kernel_seconds()]
        self._open = False

    @contextmanager
    def round(self, kind):
        self._raw = self._scaled = 0.0
        self._open = True
        self._start = perf_counter()
        try:
            yield
        finally:
            self._cut()
            self._open = False
            self.rounds.append((kind, self._raw, self._scaled))

    def tick(self):
        """Called between program calls: cut the segment once it is long enough."""
        if self._open and perf_counter() - self._start >= SEGMENT_S:
            self._cut()

    def _cut(self):
        seconds = perf_counter() - self._start
        reading = kernel_seconds()
        self._raw += seconds
        self._scaled += seconds * KERNEL_REFERENCE_S * 2 / (self.readings[-1] + reading)
        self.readings.append(reading)
        self._start = perf_counter()

    def raw(self, kind):
        return [raw for k, raw, _ in self.rounds if k == kind]

    def scaled(self, kind):
        return [scaled for k, _, scaled in self.rounds if k == kind]

    def factors(self):
        """Scaled over raw time of every round, in run order."""
        return [scaled / raw if raw else 1.0 for _, raw, scaled in self.rounds]
