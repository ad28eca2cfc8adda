"""Host-speed calibration: take the host's speed drift out of the times.

On a shared host the CPU's speed drifts by tens of percent, over seconds and
over minutes, so raw times of the same code differ between runs by more than
the changes worth catching.  The benchmark therefore runs a short fixed
pure-Python loop (a *sample*) every ``GAP_S`` seconds of work and scales each
stretch of work between two samples by ``CAL_REF_S`` over the mean time of
those two samples.  ``Pace.scaled(t0, t1)`` is the work time in ``[t0, t1]``
at reference speed: the seconds it would take on a host where the loop takes
``CAL_REF_S``.  Time spent in samples is left out.

The loop runs with the garbage collector off, allocates no containers and
touches a few KiB, so the library's heap (caches, large point sets) does not
slow it down and make the library look faster, and it adds nothing to
``peak_rss_mb``.  Timestamps are ``time.perf_counter()``, which
on Linux is the system-wide monotonic clock, so samples taken in a child
process (``paced_cli.py``) line up with the parent's.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_right

CAL_LOOPS = 8000
# The loop's typical time on the 2.1 GHz x86-64 host of baseline.json.
CAL_REF_S = 0.002
GAP_S = 0.025  # work between samples; samples cost about 8% of a run

_TABLE = list(range(1024))
_KEYS = frozenset(range(0, 1024, 7))


def _step(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFFF


def _loop(n: int) -> int:
    acc = total = 0
    for i in range(n):
        acc = _step(acc, i)
        j = acc & 1023
        total += _TABLE[j]
        if j in _KEYS:
            total += 1
    return total


class Pace:
    """Calibration samples, as parallel sorted lists of start and end times."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _loop(CAL_LOOPS)
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def tick(self) -> None:
        """Take a sample if ``GAP_S`` of work has passed since the last."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= GAP_S:
            self.sample()

    def merge(self, samples, lo: float, hi: float) -> int:
        """Add (start, end) samples taken elsewhere, keeping those that lie
        inside ``[lo, hi]`` (a child's run); return how many were kept."""
        kept = [(s, e) for s, e in samples if lo <= s < e <= hi]
        if kept:
            pairs = sorted([*zip(self.starts, self.ends), *kept])
            self.starts = [s for s, _ in pairs]
            self.ends = [e for _, e in pairs]
        return len(kept)

    def _ref_ratio(self, k: int) -> float:
        """``CAL_REF_S`` over the mean of samples ``k`` and ``k + 1``."""
        durs = [self.ends[j] - self.starts[j] for j in (k, k + 1) if 0 <= j < len(self.starts)]
        return CAL_REF_S * len(durs) / sum(durs)

    def scaled(self, t0: float, t1: float) -> float:
        """Work time in ``[t0, t1]`` at reference speed, samples left out.

        Gap ``k`` runs from the end of sample ``k`` to the start of sample
        ``k + 1`` (gap -1 before the first sample, the last one open-ended).
        """
        if not self.starts:
            raise ValueError("no calibration samples")
        n = len(self.starts)
        k = bisect_right(self.ends, t0) - 1
        total = 0.0
        while True:
            g0 = self.ends[k] if k >= 0 else t0
            g1 = self.starts[k + 1] if k + 1 < n else t1
            lo, hi = max(t0, g0), min(t1, g1)
            if hi > lo:
                total += (hi - lo) * self._ref_ratio(k)
            if g1 >= t1 or k + 1 >= n:
                return total
            k += 1

    def mean_s(self) -> float:
        return statistics.fmean(e - s for s, e in zip(self.starts, self.ends))
