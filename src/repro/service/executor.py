"""The embedded multi-client service: admission, batching, workers, retry.

Request lifecycle::

    submit ──> bounded admission queue ──> dispatcher drains a window
                   │ (Full → ServiceOverloadedError)
                   v
          window partitioned: IRS requests grouped per collection,
          everything else solo
                   │
                   v
          worker pool executes groups (one snapshot per group, distinct
          queries deduplicated — see repro.service.batch) and solos, each
          wrapped in retry-with-jittered-backoff on DeadlockError /
          LockTimeoutError
                   │
                   v
          per-request futures resolve; the dispatcher waits for the
          window to finish (the cycle barrier) — meanwhile the next
          window's requests accumulate in the queue, which is what makes
          cross-request batching effective

A window is what is queued when the dispatcher wakes, up to
``window_size``; whether it waits for more is the last window's call
(:func:`linger_after`).  A ``query_batch`` is admitted as one unit, so its
items share a window (up to ``window_size`` at a time).

Everything is instrumented through :mod:`repro.obs`: ``service.queue.depth``
gauge (plus the ``depth_peak`` high watermark), per-stage rolling latency
histograms with live percentiles (``service.request.queue_seconds`` /
``run_seconds`` / ``total_seconds``), ``service.retries`` counters, batch
shape histograms.  Every successful IRS result also carries
``ResultSet.telemetry`` — the request's attributed share of its batch
window's cost (see :mod:`repro.obs.telemetry`).
"""

from __future__ import annotations

import queue
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures import wait as _wait_futures
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.context import coupling_context
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    RequestTimeoutError,
    RetryExhaustedError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.oodb.database import Database
from repro.oodb.objects import DBObject
from repro.service import batch as batch_module
from repro.service.config import ServiceConfig
from repro.service.results import ResultSet

_UNSET = object()

#: A query_batch item: (collection_obj, irs_query) or (collection_obj,
#: irs_query, model) or (collection_obj, irs_query, model, top_k).
BatchItem = Union[
    Tuple[DBObject, str],
    Tuple[DBObject, str, Optional[str]],
    Tuple[DBObject, str, Optional[str], Optional[int]],
]


def linger_after(filled: int, window_size: int, run_seconds: float) -> float:
    """Seconds the next window may wait to fill, given the last window.

    A full window (``filled == window_size``) had more clients than slots;
    its barrier is releasing them now, so the next window waits for them,
    bounded by the full window's own run time.  An underfull one lingers
    not at all: no one else was waiting.
    """
    return run_seconds if filled >= window_size else 0.0


@dataclass
class _Request:
    """One admitted unit of work, resolved through its future."""

    kind: str  # "irs" or "call"
    future: "Future[Any]" = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    collection_obj: Optional[DBObject] = None
    irs_query: str = ""
    model: Optional[str] = None
    top_k: Optional[int] = None
    fn: Optional[Callable[[], Any]] = None
    error_mapper: Callable[[BaseException], BaseException] = field(
        default=batch_module.map_query_error
    )
    label: str = ""


class DocumentService:
    """Executes coupling requests for many concurrent clients.

    Embedded (in-process, thread-based); one instance per database.  Most
    callers never touch this class directly — :class:`repro.Session` with
    ``workers >= 1`` owns one.
    """

    def __init__(self, db: Database, config: Optional[ServiceConfig] = None) -> None:
        self.db = db
        self.config = config or ServiceConfig()
        self.context = coupling_context(db)
        # ``None`` in the queue is close() waking the dispatcher.
        self._queue: "queue.Queue[Optional[_Request]]" = queue.Queue(
            maxsize=self.config.max_queue
        )
        # Held by query_batch while it admits and by the dispatcher while it
        # drains, so a batch is never split between two windows.
        self._admission = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closed = False
        self._rng = random.Random(self.config.retry_seed)
        self._rng_lock = threading.Lock()
        if self.config.auto_start:
            self.start()

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._dispatcher is not None and self._dispatcher.is_alive()

    def start(self) -> None:
        """Start the worker pool and the dispatcher (idempotent)."""
        if self._closed:
            raise ServiceClosedError("service already closed")
        if self.running:
            return
        self._stop.clear()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-service"
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatcher", daemon=True
        )
        self._dispatcher.start()

    def close(self) -> None:
        """Stop accepting work, fail queued requests, stop the pool."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        try:
            self._queue.put_nowait(None)
        except queue.Full:  # a full queue wakes the dispatcher by itself
            pass
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
            self._dispatcher = None
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            if request is not None:
                request.future.set_exception(
                    ServiceClosedError("service closed before the request ran")
                )
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        obs.metrics().gauge("service.queue.depth").set(0)

    def __enter__(self) -> "DocumentService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- submission ---------------------------------------------------------

    def submit_query(
        self,
        collection_obj: DBObject,
        irs_query: str,
        model: Optional[str] = None,
        top_k: Optional[int] = None,
    ) -> "Future[ResultSet]":
        """Enqueue one IRS query; resolves to a :class:`ResultSet`."""
        return self._admit(
            _Request(
                "irs", collection_obj=collection_obj, irs_query=irs_query,
                model=model, top_k=top_k, label="query",
            )
        )

    def submit_call(
        self,
        fn: Callable[[], Any],
        label: str = "call",
        error_mapper: Callable[[BaseException], BaseException] = batch_module.map_coupling_error,
    ) -> "Future[Any]":
        """Enqueue an arbitrary coupling operation (index, mixed query, …)."""
        return self._admit(
            _Request("call", fn=fn, error_mapper=error_mapper, label=label)
        )

    def _admit(self, request: _Request) -> "Future[Any]":
        if self._closed:
            raise ServiceClosedError("service already closed")
        registry = obs.metrics()
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            registry.counter("service.requests.rejected").inc()
            raise ServiceOverloadedError(
                f"admission queue full ({self.config.max_queue} requests); "
                "shed load or retry later"
            ) from None
        registry.counter("service.requests.submitted").inc()
        depth = self._queue.qsize()
        registry.gauge("service.queue.depth").set(depth)
        registry.gauge("service.queue.depth_peak").max_of(depth)
        return request.future

    # -- synchronous wrappers ----------------------------------------------

    def query(
        self,
        collection_obj: DBObject,
        irs_query: str,
        model: Optional[str] = None,
        timeout: Any = _UNSET,
        top_k: Optional[int] = None,
    ) -> ResultSet:
        """Submit one IRS query and wait for its result."""
        return self._await(
            self.submit_query(collection_obj, irs_query, model, top_k), timeout
        )

    def query_batch(
        self, items: Sequence[BatchItem], timeout: Any = _UNSET
    ) -> List[ResultSet]:
        """Submit many IRS queries at once and wait for all of them.

        The items are admitted as one unit, ``window_size`` at a time, so
        each chunk lands in one batching window (shared snapshots,
        deduplicated scoring).
        """
        items, size, futures = list(items), self.config.window_size, []
        for start in range(0, len(items), size):
            with self._admission:
                futures.extend(
                    self.submit_query(*batch_module.unpack(item))
                    for item in items[start : start + size]
                )
        return [self._await(future, timeout) for future in futures]

    def call(
        self,
        fn: Callable[[], Any],
        label: str = "call",
        error_mapper: Callable[[BaseException], BaseException] = batch_module.map_coupling_error,
        timeout: Any = _UNSET,
    ) -> Any:
        """Submit an arbitrary operation and wait for it."""
        return self._await(self.submit_call(fn, label, error_mapper), timeout)

    def _await(self, future: "Future[Any]", timeout: Any = _UNSET) -> Any:
        effective = self.config.request_timeout if timeout is _UNSET else timeout
        try:
            return future.result(timeout=effective)
        except _FutureTimeout:
            obs.metrics().counter("service.requests.timeouts").inc()
            raise RequestTimeoutError(
                f"request did not complete within {effective}s"
            ) from None

    # -- dispatcher ---------------------------------------------------------

    def _dispatch_loop(self) -> None:
        linger = 0.0
        while not self._stop.is_set():
            first = self._queue.get()
            if first is None:
                continue
            window = self._collect(first, linger)
            obs.metrics().gauge("service.queue.depth").set(self._queue.qsize())
            started = time.perf_counter()
            self._run_window(window)
            linger = linger_after(
                len(window), self.config.window_size, time.perf_counter() - started
            )

    def _collect(self, first: _Request, linger: float) -> List[_Request]:
        """The window ``first`` opens: what is queued, up to ``window_size``,
        and what arrives within ``linger`` seconds while it is not full."""
        window, size = [first], self.config.window_size
        deadline = time.perf_counter() + linger
        while True:
            with self._admission:
                while len(window) < size:
                    try:
                        request = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if request is None:
                        return window
                    window.append(request)
            remaining = deadline - time.perf_counter()
            if len(window) == size or remaining <= 0:
                return window
            try:
                request = self._queue.get(timeout=remaining)
            except queue.Empty:
                return window
            if request is None:
                return window
            window.append(request)

    def _run_window(self, window: List[_Request]) -> None:
        registry = obs.metrics()
        registry.histogram("service.batch.window_size").observe(len(window))
        groups: Dict[Any, List[_Request]] = {}
        solos: List[_Request] = []
        for request in window:
            if request.kind == "irs":
                groups.setdefault(request.collection_obj.oid, []).append(request)
            else:
                solos.append(request)
        registry.histogram("service.batch.groups").observe(len(groups))
        pool = self._pool
        if pool is None:  # closed mid-flight
            for request in window:
                request.future.set_exception(ServiceClosedError("service closed"))
            return
        tasks = [
            pool.submit(self._run_group, requests, len(window))
            for requests in groups.values()
        ]
        tasks.extend(pool.submit(self._run_solo, request) for request in solos)
        # Cycle barrier: while this window executes, the next one's
        # requests pile up in the admission queue and batch better.
        _wait_futures(tasks)

    # -- execution ----------------------------------------------------------

    def _run_group(self, requests: List[_Request], window_size: int = 0) -> None:
        collection_obj = requests[0].collection_obj
        started = time.perf_counter()
        try:
            outcome = self._with_retry(
                lambda: batch_module.execute_group(
                    self.context,
                    collection_obj,
                    [(r.model, r.irs_query, r.top_k) for r in requests],
                ),
                label="group",
            )
        except BaseException as exc:
            mapped = batch_module.map_query_error(exc)
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(mapped)
            self._observe(requests, started, failed=True)
            return
        default_model = collection_obj.get("model")
        irs_name = collection_obj.get("irs_name")
        finished = time.perf_counter()
        totals = outcome.group_totals()
        for request in requests:
            if request.future.done():
                continue
            key = (request.model or default_model, request.irs_query, request.top_k)
            try:
                result = outcome.result(key, self.db, irs_name)
                if totals is not None:
                    result.telemetry = outcome.telemetry(
                        key, irs_name, totals, request.enqueued_at, started,
                        finished, window_size,
                    )
                request.future.set_result(result)
            except BaseException as exc:
                request.future.set_exception(exc)
        self._observe(requests, started)

    def _run_solo(self, request: _Request) -> None:
        started = time.perf_counter()
        try:
            result = self._with_retry(request.fn, label=request.label)
        except BaseException as exc:
            if not request.future.done():
                request.future.set_exception(request.error_mapper(exc))
            self._observe([request], started, failed=True)
            return
        if not request.future.done():
            request.future.set_result(result)
        self._observe([request], started)

    def _with_retry(self, fn: Callable[[], Any], label: str) -> Any:
        """Run ``fn``, retrying deadlock/lock-timeout victims with backoff."""
        registry = obs.metrics()
        attempt = 0
        while True:
            attempt += 1
            try:
                if self.config.failure_injector is not None:
                    self.config.failure_injector(label, attempt)
                return fn()
            except (DeadlockError, LockTimeoutError) as exc:
                if attempt > self.config.max_retries:
                    registry.counter("service.retries.exhausted").inc()
                    raise RetryExhaustedError(
                        f"{label} still aborting after {attempt} attempts"
                    ) from exc
                registry.counter("service.retries").inc()
                registry.counter(f"service.retries.{label}").inc()
                with self._rng_lock:
                    jitter = 0.5 + self._rng.random()
                delay = (
                    min(
                        self.config.backoff_cap,
                        self.config.backoff_base * (2 ** (attempt - 1)),
                    )
                    * jitter
                )
                time.sleep(delay)

    def _observe(
        self, requests: List[_Request], started: float, failed: bool = False
    ) -> None:
        registry = obs.metrics()
        now = time.perf_counter()
        queued = registry.rolling("service.request.queue_seconds")
        total = registry.rolling("service.request.total_seconds")
        for request in requests:
            queued.observe(started - request.enqueued_at)
            total.observe(now - request.enqueued_at)
        registry.rolling("service.request.run_seconds").observe(
            now - started, len(requests)
        )
        registry.counter(
            "service.requests.failed" if failed else "service.requests.completed"
        ).inc(len(requests))
