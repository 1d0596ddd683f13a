"""Speed-normalised timing.

The sandbox this benchmark runs in changes speed under it: a fixed
pure-Python loop gets between 60 % and 130 % of its usual rate for seconds
or minutes at a time (shared cores; no steal time is reported).  Wall-clock
throughput of one unchanged commit then spreads over +-25 %, wider than any
bound a regression gate could use.

So every timed stretch of work is cut into slices and the rate of a fixed
kernel is measured between slices.  The part of a slice's wall time that the
process spent on a CPU is multiplied by ``kernel rate around the slice /
REFERENCE_RATE``; the part it spent waiting (batch-window timers, fsync,
sockets) is left as it is.  All reported times are such normalised times:
what the work would have taken at the reference speed.  On a quiet machine
at reference speed they equal wall time.  In a seven-minute test the
normalised throughput of one workload varied by 4.7 % (coefficient of
variation over 12-second windows) where the raw throughput varied by 17 %.

The kernel uses only builtins, so no change to the system under test can
move it; what a change saves or costs shows up undiminished.
"""

from __future__ import annotations

from time import perf_counter, process_time

#: Kernel rounds per second taken as speed 1.0 — the sandbox's usual rate
#: when this benchmark was defined.  A constant: changing it rescales every
#: reported time.
REFERENCE_RATE = 60_000.0
BURST_SECONDS = 0.006
#: Work between two kernel bursts.
SLICE_SECONDS = 0.1


def _kernel_round() -> None:
    table: dict = {}
    for i in range(200):
        table[i % 97] = table.get(i % 97, 0) + i


def kernel_rate(seconds: float = BURST_SECONDS) -> float:
    """Kernel rounds per second, measured for about ``seconds``."""
    rounds = 0
    begin = perf_counter()
    while True:
        _kernel_round()
        rounds += 1
        elapsed = perf_counter() - begin
        if elapsed >= seconds:
            return rounds / elapsed


class SpeedMeter:
    """Accumulates the normalised time of consecutive slices of work."""

    def __init__(self) -> None:
        self.normalised = 0.0
        self.raw = 0.0
        self._rate = kernel_rate()
        self._cpu = process_time()
        self.mark = perf_counter()

    def tick(self) -> float:
        """End the slice begun at ``mark``; returns its time factor.

        The speed of the slice is the mean of the kernel rates measured
        before and after it, over the reference rate.  Only the share of the
        slice this process spent on a CPU is scaled by it: a timer, a lock
        or an fsync does not wait any shorter on a faster core.  The bursts
        themselves are not counted as work.
        """
        wall = perf_counter() - self.mark
        busy = min(1.0, (process_time() - self._cpu) / wall) if wall > 0 else 0.0
        rate = kernel_rate()
        speed = (self._rate + rate) / (2.0 * REFERENCE_RATE)
        factor = 1.0 - busy + busy * speed
        self._rate = rate
        self.raw += wall
        self.normalised += wall * factor
        self._cpu = process_time()
        self.mark = perf_counter()
        return factor
