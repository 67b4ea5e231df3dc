"""The speed of the machine, followed through a run by a reference clock.

On a shared machine the same Python code runs up to twice as fast in one
half-minute as in the next, and an op's wall time moves with it.  The
reference is a fixed pure-Python computation that does not use singq: the
checker's coloring of the z8_k reproduction braid over a fixed affine table
of order 8.  The clock times it between ops, often enough that it takes
about REF_SHARE of the elapsed time, and ``scaled`` turns the wall time of
an op into the time it would take on a machine on which the reference takes
REF_NOMINAL_S, at the speed the reference ran at within REF_WINDOW_S of the
op.  A change to singq moves the op times and not the reference.
"""

from __future__ import annotations

import bisect
import collections
import statistics
import time

import gen
import verify

REF_SHARE = 0.05
REF_NOMINAL_S = 0.0008
REF_WINDOW_S = 0.5


def _tables(n: int) -> dict:
    star = [[(3 * x + 6 * y) % n for y in range(n)] for x in range(n)]
    star_inv = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            star_inv[star[x][y]][y] = x
    return {"kind": "singquandle", "n": n, "star": star, "star_inv": star_inv,
            "r1": [[(5 * x + 4 * y) % n for y in range(n)] for x in range(n)],
            "r2": [[(7 * x + y) % n for y in range(n)] for x in range(n)]}


class ReferenceClock:
    def __init__(self):
        self.tables = _tables(8)
        touches = collections.Counter()
        for _, j in gen.REPRO_WORD:
            touches[j] += 1
            touches[j + 1] += 1
        self.labels = [f"s{p}_{t}" for p in range(gen.REPRO_STRANDS)
                       for t in range(touches[p])]
        self.restart()

    def restart(self) -> None:
        """Forget the samples so far; the next stretch starts now, with one
        sample."""
        self.samples = []     # (midpoint, seconds)
        self.spent = 0.0
        self.start = time.perf_counter()
        self._sample()

    def _sample(self) -> None:
        t0 = time.perf_counter()
        verify.braid_colorings(gen.REPRO_STRANDS, gen.REPRO_WORD, self.tables,
                               self.labels)
        dt = time.perf_counter() - t0
        self.samples.append((t0 + dt / 2, dt))
        self.spent += dt

    def tick(self) -> None:
        """Time the reference until it has taken REF_SHARE of the stretch."""
        while self.spent < REF_SHARE * (time.perf_counter() - self.start):
            self._sample()

    def scaled(self, intervals) -> list:
        """Nominal seconds of each (start, seconds) interval of the stretch."""
        self.tick()
        mids = [m for m, _ in self.samples]
        cumulative = [0.0]
        for _, dt in self.samples:
            cumulative.append(cumulative[-1] + dt)
        out = []
        for start, seconds in intervals:
            lo = bisect.bisect_left(mids, start - REF_WINDOW_S)
            hi = bisect.bisect_right(mids, start + seconds + REF_WINDOW_S)
            if lo == hi:    # none near: the next sample, or the last
                lo = min(lo, len(mids) - 1)
                hi = lo + 1
            mean = (cumulative[hi] - cumulative[lo]) / (hi - lo)
            out.append(seconds * REF_NOMINAL_S / mean)
        return out

    def mean(self) -> float:
        """Mean seconds of the reference over the stretch."""
        return statistics.fmean(dt for _, dt in self.samples)
