"""The embedded multi-client service: admission, batching, workers, retry.

Request lifecycle::

    query / call / query_batch            submit_query / submit_call
                 │                                     │
                 v                                     v
          bounded admission queue (Full → ServiceOverloadedError)
                 │                                     │
                 v                                     v
    the caller leads a window when none   the dispatcher leads when no
    runs, else waits for the turn         caller waits
                 └──────────────────┬──────────────────┘
                                    v
          the leader drains a window: IRS requests grouped per
          collection, everything else solo; the first group (or solo)
          runs on the leader's thread, the rest on the worker pool (one
          snapshot per group, distinct queries deduplicated — see
          repro.service.batch), each wrapped in retry-with-jittered-
          backoff on DeadlockError / LockTimeoutError
                                    │
                                    v
          per-request futures resolve; the leader waits for the window
          to finish (the cycle barrier) — meanwhile the next window's
          requests accumulate in the queue, which is what makes
          cross-request batching effective — then hands the turn to one
          waiting caller, which drains everything queued

The thread that waits for a request runs it, leader/follower style, the
way group commit works: a caller leads only until its own request has
run, so a lone request touches neither the dispatcher nor the pool.  A
caller inside an explicit transaction never leads: other callers'
requests must not run in it.  A window is what is queued when its leader
takes the turn, up to ``window_size``; whether it waits for more is the
last window's call (:func:`linger_after`, and :meth:`_collect`).  A
``query_batch`` is admitted as one unit, so its items share a window (up
to ``window_size`` at a time).

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
from concurrent.futures import wait as _wait_futures
from dataclasses import dataclass, field
from functools import partial
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


def _query_request(collection_obj, irs_query, model=None, top_k=None) -> _Request:
    return _Request("irs", collection_obj=collection_obj, irs_query=irs_query,
                    model=model, top_k=top_k, label="query")


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
        # ``None`` in the queue is close() ending a linger.
        self._queue: "queue.Queue[Optional[_Request]]" = queue.Queue(
            maxsize=self.config.max_queue
        )
        # Held by query_batch while it admits and by a window's leader while
        # it drains, so a batch is never split between two windows.
        self._admission = threading.Lock()
        # Under ``_turn``: whether a thread holds the turn (collects and runs
        # the one window in flight), the callers parked for it as (future,
        # event), and how many synchronous callers are inside.
        self._turn = threading.Lock()
        self._busy, self._waiters, self._callers = False, [], 0
        # The last window's leader thread, end, run time and run time per
        # query (0 when it held a call), and whether its leader waited for
        # riders in vain and no other thread has led since; see _run_next
        # and _collect.
        self._leader: Optional[int] = None
        self._ended = self._ran = self._share = self._linger = self._patience = 0.0
        self._alone = False
        self._wake = threading.Event()  # rings the dispatcher
        self._pool: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[threading.Thread] = None
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
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-service"
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatcher", daemon=True
        )
        self._dispatcher.start()
        if not self._queue.empty():  # admitted before the start
            self._wake.set()

    def close(self) -> None:
        """Stop accepting work, let the running window end, fail queued
        requests, stop the pool."""
        if self._closed:
            return
        self._closed = True
        try:
            self._queue.put_nowait(None)
        except queue.Full:  # a full window lingers no longer
            pass
        self._wake.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
            self._dispatcher = None
        self._take_turn(Future(), None)  # after the window in flight
        while (request := self._take()) is not None:
            request.future.set_exception(
                ServiceClosedError("service closed before the request ran")
            )
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._release()
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
        future = self._admit(_query_request(collection_obj, irs_query, model, top_k))
        self._wake.set()
        return future

    def submit_call(
        self,
        fn: Callable[[], Any],
        label: str = "call",
        error_mapper: Callable[[BaseException], BaseException] = batch_module.map_coupling_error,
    ) -> "Future[Any]":
        """Enqueue an arbitrary coupling operation (index, mixed query, …)."""
        future = self._admit(_Request("call", fn=fn, error_mapper=error_mapper, label=label))
        self._wake.set()
        return future

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
        """Run one IRS query and return its result."""
        request = _query_request(collection_obj, irs_query, model, top_k)
        return self._run_sync([request], timeout)[0]

    def query_batch(
        self, items: Sequence[BatchItem], timeout: Any = _UNSET
    ) -> List[ResultSet]:
        """Run many IRS queries at once and return all their results.

        The items are admitted as one unit, ``window_size`` at a time, so
        each chunk lands in one batching window (shared snapshots,
        deduplicated scoring).
        """
        requests = [_query_request(*batch_module.unpack(item)) for item in items]
        return self._run_sync(requests, timeout)

    def call(
        self,
        fn: Callable[[], Any],
        label: str = "call",
        error_mapper: Callable[[BaseException], BaseException] = batch_module.map_coupling_error,
        timeout: Any = _UNSET,
    ) -> Any:
        """Run an arbitrary operation and return its result."""
        request = _Request("call", fn=fn, error_mapper=error_mapper, label=label)
        return self._run_sync([request], timeout)[0]

    def _run_sync(self, requests: List[_Request], timeout: Any) -> List[Any]:
        """Admit ``requests`` and wait for each, leading windows meanwhile."""
        leads = self.db._current_txn() is None
        with self._turn:
            self._callers += leads
        try:
            size = self.config.window_size
            for start in range(0, len(requests), size):
                with self._admission:
                    for request in requests[start : start + size]:
                        self._admit(request)
            if not leads:
                self._wake.set()
            return [self._await(request.future, timeout, leads) for request in requests]
        finally:
            with self._turn:
                self._callers -= leads
                self._ring()

    def _await(self, future: "Future[Any]", timeout: Any, leads: bool) -> Any:
        effective = self.config.request_timeout if timeout is _UNSET else timeout
        deadline = None if effective is None else time.perf_counter() + effective
        while not future.done():
            if leads and self._take_turn(future, deadline):
                if not future.done():  # this thread holds the turn
                    try:
                        self._run_next()
                    finally:
                        self._release()
            elif leads or not _wait_futures([future], effective).done:
                obs.metrics().counter("service.requests.timeouts").inc()
                raise RequestTimeoutError(f"request did not complete within {effective}s")
        return future.result()

    # -- the turn -----------------------------------------------------------

    def _take_turn(self, future: "Future[Any]", deadline: Optional[float]) -> bool:
        """Wait until ``future`` is done or this thread holds the turn (True;
        it holds it iff ``future`` is not done), or until ``deadline``."""
        with self._turn:
            if future.done():
                return True
            if not self._busy and (self._pool is not None or self._closed):
                self._busy = True
                return True
            entry = (future, threading.Event())
            self._waiters.append(entry)
        if entry[1].wait(None if deadline is None else deadline - time.perf_counter()):
            return True
        with self._turn:
            if entry not in self._waiters:  # handed the turn or resolved meanwhile
                return True
            self._waiters.remove(entry)
        return False

    def _release(self) -> None:
        """End the turn: wake every waiter whose request has run and hand
        the turn to the first whose request has not."""
        with self._turn:
            waiters, self._waiters, handed = self._waiters, [], False
            for entry in waiters:
                if not entry[0].done():
                    if handed:
                        self._waiters.append(entry)
                        continue
                    handed = True
                entry[1].set()
            if not handed:
                self._busy = False
                self._ring()

    def _ring(self) -> None:
        """Under ``_turn``: wake the dispatcher for what no caller will run."""
        if not (self._busy or self._callers or self._queue.empty()):
            self._wake.set()

    def _dispatch_loop(self) -> None:
        """Run ``submit_*`` requests and what the last caller left queued."""
        while True:
            self._wake.wait()
            self._wake.clear()
            if self._closed:
                return
            with self._turn:
                if self._busy or self._queue.empty():
                    continue
                self._busy = True
            try:
                self._run_next()
            finally:
                self._release()

    def _take(self) -> Optional[_Request]:
        """The oldest queued request (skipping close()'s ``None``), or None."""
        while not self._queue.empty():
            request = self._queue.get_nowait()
            if request is not None:
                return request
        return None

    def _run_next(self) -> None:
        """Collect the next window and run it (the caller holds the turn)."""
        first = self._take()
        if first is None:
            return
        leader, self._leader = self._leader, threading.get_ident()
        again, opened = leader == self._leader, time.perf_counter()
        saturated = again and not self._alone and opened - self._ended < self._ran
        self._patience = self._share if saturated else 0.0
        window = self._collect(first, self._linger)
        caught = window[-1].enqueued_at > opened  # the queue is FIFO
        self._alone = again and (self._alone or (self._patience > 0 and not caught))
        obs.metrics().gauge("service.queue.depth").set(self._queue.qsize())
        started = time.perf_counter()
        self._run_window(window)
        self._ended = time.perf_counter()
        self._ran = self._ended - started
        queries = all(request.kind == "irs" for request in window)
        self._share = self._ran / len(window) if queries else 0.0
        self._linger = linger_after(len(window), self.config.window_size, self._ran)

    def _collect(self, first: _Request, linger: float) -> List[_Request]:
        """The window ``first`` opens: what is queued, up to ``window_size``,
        and what arrives within ``linger`` seconds while it is not full.

        A thread that leads again sooner after its last window ended than
        that one ran is in a tight loop: other callers may be ready to run
        and wait only for the GIL it holds.  Past the linger, its window waits for
        each next request as long as the last window ran per request (when
        that one held only queries, whose work riders share), and closes
        when one does not come.  A leader whose wait caught no one is
        alone: it waits no more until another thread leads, so a lone
        caller pays the wait once.
        """
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
            if len(window) == size or (remaining <= 0 and not self._patience):
                return window
            try:
                request = self._queue.get(timeout=max(remaining, self._patience))
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
        if pool is None:  # led after close()
            for request in window:
                request.future.set_exception(ServiceClosedError("service closed"))
            return
        jobs = [partial(self._run_group, requests, len(window)) for requests in groups.values()]
        jobs.extend(partial(self._run_solo, request) for request in solos)
        tasks = [pool.submit(job) for job in jobs[1:]]
        jobs[0]()  # on the thread that holds the turn
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
