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

Everything is instrumented through :mod:`repro.obs`: ``service.queue.depth``
gauge (plus the ``depth_peak`` high watermark), per-stage rolling latency
histograms with live percentiles (``service.request.queue_seconds`` /
``run_seconds`` / ``total_seconds``), ``service.retries`` counters, batch
shape histograms.  Since PR 7 every successful IRS result also carries
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
from repro.obs.telemetry import CostProfile, RequestTelemetry
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


@dataclass
class _Request:
    """One admitted unit of work, resolved through its future."""

    kind: str  # "irs" or "call"
    future: "Future[Any]"
    enqueued_at: float
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
        self._queue: "queue.Queue[_Request]" = queue.Queue(maxsize=self.config.max_queue)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closed = False
        self._rng = random.Random(self.config.retry_seed)
        self._rng_lock = threading.Lock()
        self._owns_merge_scheduler = False
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
        # A pooled service implies concurrent update traffic: run the
        # engine's background segment merges alongside the worker pool.
        engine = self.context.engine
        scheduler = getattr(engine, "_merge_scheduler", None)
        if scheduler is None or not scheduler.running:
            engine.start_merge_scheduler()
            self._owns_merge_scheduler = True

    def close(self) -> None:
        """Stop accepting work, fail queued requests, stop the pool."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
            self._dispatcher = None
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            request.future.set_exception(
                ServiceClosedError("service closed before the request ran")
            )
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._owns_merge_scheduler:
            self.context.engine.stop_merge_scheduler()
            self._owns_merge_scheduler = False
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
                kind="irs",
                future=Future(),
                enqueued_at=time.perf_counter(),
                collection_obj=collection_obj,
                irs_query=irs_query,
                model=model,
                top_k=top_k,
                label="query",
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
            _Request(
                kind="call",
                future=Future(),
                enqueued_at=time.perf_counter(),
                fn=fn,
                error_mapper=error_mapper,
                label=label,
            )
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

        Submitting together is what lets the dispatcher put them into one
        batching window (shared snapshots, deduplicated scoring).
        """
        futures = [self.submit_query(*batch_module.unpack(item)) for item in items]
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
        while not self._stop.is_set():
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            window = [first]
            deadline = time.perf_counter() + self.config.batch_linger
            while len(window) < self.config.window_size:
                try:
                    window.append(self._queue.get_nowait())
                except queue.Empty:
                    # Linger briefly: clients released by the previous
                    # window's barrier are resubmitting right now.
                    if time.perf_counter() >= deadline or self._stop.is_set():
                        break
                    time.sleep(0.0003)
            obs.metrics().gauge("service.queue.depth").set(self._queue.qsize())
            self._run_window(window)

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
            try:
                result = batch_module.result_for(
                    outcome,
                    self.db,
                    irs_name,
                    request.model,
                    default_model,
                    request.irs_query,
                    request.top_k,
                )
                if totals is not None:
                    result.telemetry = self._build_telemetry(
                        request, outcome, irs_name, default_model,
                        started, finished, totals, window_size,
                    )
                request.future.set_result(result)
            except BaseException as exc:
                request.future.set_exception(exc)
        self._observe(requests, started)

    def _build_telemetry(
        self,
        request: _Request,
        outcome,
        irs_name: str,
        default_model: Optional[str],
        started: float,
        finished: float,
        totals: Dict[str, float],
        window_size: int,
    ) -> RequestTelemetry:
        """Attribute the group's shared work back to one rider request.

        Conservation by construction: this request receives its key's cost
        divided by that key's rider count, plus the group-shared cost
        divided by the group size.  Summed over the group's requests the
        splits rebuild ``totals`` exactly.
        """
        key = (request.model or default_model, request.irs_query, request.top_k)
        riders = outcome.riders.get(key, 1)
        cost = CostProfile()
        key_cost = (outcome.costs or {}).get(key)
        if key_cost is not None and riders:
            cost.merge(key_cost, 1.0 / riders)
        if outcome.shared is not None and outcome.requested_count:
            cost.merge(outcome.shared, 1.0 / outcome.requested_count)
        telemetry = batch_module.request_telemetry(
            "batched", irs_name, request.irs_query, key[0], request.top_k,
            outcome.epoch, cost, outcome.query_spans.get(key),
            request.enqueued_at, started, finished,
        )
        telemetry.window_size = window_size or outcome.requested_count
        telemetry.group_size = outcome.requested_count
        telemetry.distinct_queries = len(outcome.costs or ())
        telemetry.riders = riders
        telemetry.group_totals = totals
        return telemetry

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
        run_seconds = now - started
        for request in requests:
            registry.rolling("service.request.queue_seconds").observe(
                started - request.enqueued_at
            )
            registry.rolling("service.request.run_seconds").observe(run_seconds)
            registry.rolling("service.request.total_seconds").observe(
                now - request.enqueued_at
            )
            registry.counter(
                "service.requests.failed" if failed else "service.requests.completed"
            ).inc()
