"""Tunables of the concurrent service layer.

One frozen dataclass so a :class:`~repro.service.executor.DocumentService`
can be described, compared, and rebuilt from plain numbers.  The defaults
are sized for an embedded, in-process service: a handful of workers, a
bounded queue a few windows deep, and millisecond-scale backoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of a :class:`~repro.service.executor.DocumentService`.

    ``workers``
        Pool threads executing request groups.  A window's first group (or
        solo request) runs on the thread that leads it — usually the
        synchronous caller whose request opened it — and the pool runs
        the rest, so a one-group window never touches the pool.
    ``max_queue``
        Bound of the admission queue; submissions beyond it are rejected
        with :class:`~repro.errors.ServiceOverloadedError` (backpressure).
    ``max_batch_per_worker``
        A window's leader drains up to ``workers * max_batch_per_worker``
        requests into one batching window (cross-request batching is where
        the throughput win comes from — shared snapshots and deduplicated
        scoring, not thread parallelism).  There is no linger knob: the
        last window decides (:func:`repro.service.executor.linger_after`).
    ``max_retries``
        Automatic retries of a request aborted by
        :class:`~repro.errors.DeadlockError` /
        :class:`~repro.errors.LockTimeoutError` before
        :class:`~repro.errors.RetryExhaustedError` is raised.
    ``backoff_base`` / ``backoff_cap``
        Jittered exponential backoff between retries:
        ``min(cap, base * 2**(attempt-1)) * (0.5 + rng.random())`` seconds.
    ``request_timeout``
        Per-request deadline in seconds for the synchronous wrappers
        (None = wait forever); exceeding it raises
        :class:`~repro.errors.RequestTimeoutError`.
    ``retry_seed``
        Seed of the backoff jitter RNG (tests pin it for determinism).
    ``failure_injector``
        Test hook called as ``fn(kind, attempt)`` at the start of every
        execution attempt; raising ``DeadlockError`` from it simulates a
        victim abort without needing a real lock cycle.
    ``auto_start``
        When False the service is built stopped (tests fill the admission
        queue first, then assert overload behaviour).
    """

    workers: int = 4
    max_queue: int = 64
    max_batch_per_worker: int = 4
    max_retries: int = 3
    backoff_base: float = 0.005
    backoff_cap: float = 0.1
    request_timeout: Optional[float] = 30.0
    retry_seed: Optional[int] = None
    failure_injector: Optional[Callable[[str, int], None]] = None
    auto_start: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_batch_per_worker < 1:
            raise ValueError("max_batch_per_worker must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff values must be >= 0")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive or None")

    @property
    def window_size(self) -> int:
        """Requests a leader drains into one batching window."""
        return self.workers * self.max_batch_per_worker
