"""Log-bucketed rolling-window latency histogram with percentile snapshots.

The PR 2 fixed-bucket :class:`~repro.obs.metrics.Histogram` accumulates
forever: after an hour of traffic a one-minute latency regression is
invisible under the cumulative mass, and its 16 linear-ish buckets cannot
answer "what is p999 right now".  :class:`RollingHistogram` fixes both:

* **log-spaced buckets** — bucket edges grow geometrically from ``lo`` to
  ``hi`` (default four buckets per octave, ~80 buckets from 10 µs to 10 s),
  so relative resolution is constant across five orders of magnitude and a
  p99 estimate is never more than ~9% off the true value;
* **a ring of time slices** — observations land in the slice covering the
  current wall-clock period; a snapshot merges only the slices inside the
  window (default 60 s in 12 slices of 5 s), so old traffic ages out
  automatically and memory stays bounded at ``slices x buckets`` integers
  regardless of traffic volume;
* **percentiles by interpolation** — p50/p95/p99/p999 are read from the
  merged bucket mass at the geometric midpoint of the owning bucket,
  clamped to the window's observed min/max.

Thread-safe: one lock per instrument (observations are per *request*, not
per posting, so the lock is far off any scoring hot path).
:class:`NoopRollingHistogram` is the disabled-path twin.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, List, Optional

#: Percentiles every snapshot reports, keyed by their snapshot field name.
SNAPSHOT_QUANTILES = (("p50", 0.5), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))


class _Slice:
    """One time slice of the ring: bucket counts plus count/sum/min/max."""

    __slots__ = ("period", "counts", "count", "total", "minimum", "maximum")

    def __init__(self, buckets: int) -> None:
        self.period = -1
        self.counts = [0] * buckets
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def clear(self, period: int) -> None:
        self.period = period
        counts = self.counts
        for index in range(len(counts)):
            counts[index] = 0
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None


class RollingHistogram:
    """Percentile latency tracking over a sliding wall-clock window."""

    def __init__(
        self,
        window_seconds: float = 60.0,
        slices: int = 12,
        lo: float = 1e-5,
        hi: float = 10.0,
        buckets_per_octave: int = 4,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_seconds <= 0 or slices < 1:
            raise ValueError("window_seconds must be > 0 and slices >= 1")
        if not (0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        self.window_seconds = float(window_seconds)
        self.lo = lo
        self.hi = hi
        self._clock = clock
        self._slice_seconds = self.window_seconds / slices
        growth = 2.0 ** (1.0 / max(1, buckets_per_octave))
        self._log_growth = math.log(growth)
        self._log_lo = math.log(lo)
        self._buckets = max(1, int(math.ceil(math.log(hi / lo) / self._log_growth)))
        self._ring: List[_Slice] = [_Slice(self._buckets) for _ in range(slices)]
        self._lock = threading.Lock()

    # -- write path ---------------------------------------------------------

    def _bucket(self, value: float) -> int:
        if value <= self.lo:
            return 0
        index = int((math.log(value) - self._log_lo) / self._log_growth)
        return min(index, self._buckets - 1)

    def _slot(self, now: float) -> _Slice:
        period = int(now // self._slice_seconds)
        slot = self._ring[period % len(self._ring)]
        if slot.period != period:
            slot.clear(period)
        return slot

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value``, ``count`` times (a group's shared latency)."""
        with self._lock:
            slot = self._slot(self._clock())
            slot.counts[self._bucket(value)] += count
            slot.count += count
            slot.total += value * count
            if slot.minimum is None or value < slot.minimum:
                slot.minimum = value
            if slot.maximum is None or value > slot.maximum:
                slot.maximum = value

    # -- read path ----------------------------------------------------------

    def _merged(self) -> tuple:
        """(counts, count, sum, min, max) over the slices inside the window."""
        current = int(self._clock() // self._slice_seconds)
        oldest = current - len(self._ring) + 1
        counts = [0] * self._buckets
        count = 0
        total = 0.0
        minimum: Optional[float] = None
        maximum: Optional[float] = None
        for slot in self._ring:
            if slot.period < oldest or not slot.count:
                continue
            for index, n in enumerate(slot.counts):
                counts[index] += n
            count += slot.count
            total += slot.total
            if minimum is None or (slot.minimum is not None and slot.minimum < minimum):
                minimum = slot.minimum
            if maximum is None or (slot.maximum is not None and slot.maximum > maximum):
                maximum = slot.maximum
        return counts, count, total, minimum, maximum

    def _estimate(self, index: int, minimum, maximum) -> float:
        value = math.exp(self._log_lo + (index + 0.5) * self._log_growth)
        if minimum is not None:
            value = max(value, minimum)
        if maximum is not None:
            value = min(value, maximum)
        return value

    def percentile(self, quantile: float) -> float:
        """The latency at ``quantile`` of the current window (0 when empty)."""
        with self._lock:
            counts, count, _total, minimum, maximum = self._merged()
        return self._percentile_of(counts, count, minimum, maximum, quantile)

    def _percentile_of(self, counts, count, minimum, maximum, quantile) -> float:
        if not count:
            return 0.0
        rank = max(1, int(math.ceil(quantile * count)))
        seen = 0
        for index, n in enumerate(counts):
            seen += n
            if seen >= rank:
                return self._estimate(index, minimum, maximum)
        return self._estimate(self._buckets - 1, minimum, maximum)

    def fraction_above(self, threshold: float) -> float:
        """Approximate fraction of window observations above ``threshold``.

        Whole buckets resolve exactly; the bucket straddling the threshold
        contributes proportionally to the threshold's position in log space
        (the same resolution bound as the percentile estimates).
        """
        with self._lock:
            counts, count, _total, _mn, _mx = self._merged()
        if not count:
            return 0.0
        if threshold <= self.lo:
            return 1.0
        position = (math.log(threshold) - self._log_lo) / self._log_growth
        if position >= self._buckets:
            return 0.0
        whole = int(position)
        below = sum(counts[:whole]) + counts[whole] * (position - whole)
        return max(0.0, min(1.0, (count - below) / count))

    def snapshot(self) -> Dict[str, object]:
        """Count/sum/min/max plus p50/p95/p99/p999 of the current window."""
        with self._lock:
            counts, count, total, minimum, maximum = self._merged()
        quantiles = {
            label: self._percentile_of(counts, count, minimum, maximum, q)
            for label, q in SNAPSHOT_QUANTILES
        }
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": minimum,
            "max": maximum,
            "window_seconds": self.window_seconds,
            **quantiles,
        }

    def reset(self) -> None:
        with self._lock:
            for slot in self._ring:
                slot.clear(-1)
                slot.period = -1


class NoopRollingHistogram(RollingHistogram):
    """The disabled path: observations vanish, snapshots are empty."""

    def __init__(self) -> None:
        super().__init__()

    def observe(self, value: float, count: int = 1) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": 0,
            "sum": 0.0,
            "mean": 0.0,
            "min": None,
            "max": None,
            "window_seconds": self.window_seconds,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "p999": 0.0,
        }

    def percentile(self, quantile: float) -> float:
        return 0.0

    def fraction_above(self, threshold: float) -> float:
        return 0.0


NOOP_ROLLING = NoopRollingHistogram()
