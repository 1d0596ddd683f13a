"""Concurrent correctness of the pooled service.

The load-bearing test here is serial-replay equivalence: reader threads
hammer a pooled session while one updater thread mutates the collection.
Because every batched group is scored under a single collection read hold,
each :class:`ResultSet` is tagged with the index epoch it saw — and must be
byte-identical to the serial result computed at that same epoch.  The
updater (the only source of epoch transitions) records the serial truth
immediately after each propagation, while the epoch is stable.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import ServiceConfig, Session
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    RequestTimeoutError,
    RetryExhaustedError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.service import DocumentService
from tests.support import wait_until

QUERIES = ["telnet", "www", "nii", "#and(www nii)", "#or(telnet gopher)"]


class TestSerialReplayEquivalence:
    def test_concurrent_results_match_serial_replay(self, system, collection):
        session = system.open_session(workers=4)
        truth = {}          # epoch -> {query: [(oid, score), ...]}
        truth_lock = threading.Lock()
        observations = []   # (query, epoch, [(oid, score), ...])
        obs_lock = threading.Lock()
        stop = threading.Event()
        errors = []

        def capture_truth():
            """Serial replay at the current (stable) epoch, via the engine."""
            engine = system.context.engine
            irs_name = collection.get("irs_name")
            with engine.reading(irs_name):
                irs_collection = engine.collection(irs_name)
                epoch = irs_collection.index.epoch
                if epoch in truth:
                    return
                per_query = {}
                for query in QUERIES:
                    result = engine.query(irs_name, query)
                    values = result.by_metadata(irs_collection, "oid")
                    per_query[query] = sorted(
                        (oid, value) for oid, value in values.items()
                    )
                with truth_lock:
                    truth[epoch] = per_query

        def updater():
            try:
                root = system.roots[0]
                for i in range(6):
                    para = system.loader.insert_element(
                        root, "PARA", f"fresh update {i} telnet gopher nii"
                    )
                    collection.send("insertObject", para)
                    # Whoever queries first propagates; make sure it happened,
                    # then record the serial truth at the resulting epoch.
                    session.propagate(collection)
                    capture_truth()
                    # Pace on observed progress, not wall clock: wait for
                    # the readers to rank every query at least once against
                    # this epoch before moving on.  Guarantees the final
                    # observation-count assertion without a tuned sleep.
                    with obs_lock:
                        seen = len(observations)
                    wait_until(
                        lambda: len(observations) >= seen + len(QUERIES),
                        timeout=30,
                        message="readers made no progress between updates",
                    )
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    for query in QUERIES:
                        rs = session.query(collection, query, timeout=30)
                        row = (
                            query,
                            rs.epoch,
                            sorted((str(h.oid), h.score) for h in rs),
                        )
                        with obs_lock:
                            observations.append(row)
            except BaseException as exc:
                errors.append(exc)

        capture_truth()  # epoch before any update
        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=updater))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        session.close()

        assert not errors, errors
        assert len(truth) >= 2, "updater never advanced the epoch"
        assert len(observations) > 20
        unmatched = [row for row in observations if row[1] not in truth]
        assert not unmatched, f"epochs without serial truth: {unmatched[:3]}"
        for query, epoch, ranked in observations:
            expected = sorted((str(o), v) for o, v in truth[epoch][query])
            assert ranked == expected, (
                f"{query!r} at epoch {epoch} diverged from serial replay"
            )

    def test_group_shares_one_epoch(self, system, collection):
        """All requests of one submitted batch see the same snapshot."""
        with system.open_session(workers=4) as session:
            results = session.query_batch(
                [(collection, q) for q in QUERIES] * 3
            )
        assert len({r.epoch for r in results}) == 1


class TestThreads:
    def test_a_pooled_service_starts_only_its_dispatcher_and_workers(
        self, system, collection
    ):
        before = set(threading.enumerate())
        with DocumentService(system.db, ServiceConfig(workers=2)) as service:
            assert service.query(collection, "telnet", timeout=10)
            started = set(threading.enumerate()) - before
        names = sorted(thread.name for thread in started)
        assert "repro-service-dispatcher" in names
        assert all(name.startswith("repro-service") for name in names), names


class TestRetry:
    def _config(self, injector, **kw):
        return ServiceConfig(
            workers=1,
            failure_injector=injector,
            retry_seed=7,
            backoff_base=0.0005,
            backoff_cap=0.002,
            **kw,
        )

    def test_injected_deadlock_is_retried_within_budget(self, system, collection):
        attempts = []

        def injector(kind, attempt):
            attempts.append((kind, attempt))
            if attempt <= 2:
                raise DeadlockError("injected victim")

        started = time.perf_counter()
        with DocumentService(system.db, self._config(injector)) as service:
            rs = service.query(collection, "telnet", timeout=10)
        elapsed = time.perf_counter() - started
        assert rs
        assert [a for k, a in attempts if k == "group"] == [1, 2, 3]
        assert elapsed < 5.0, "retry backoff blew the budget"

    def test_lock_timeout_is_retried_too(self, system, collection):
        calls = []

        def injector(kind, attempt):
            calls.append(attempt)
            if attempt == 1:
                raise LockTimeoutError("injected timeout")

        with DocumentService(system.db, self._config(injector)) as service:
            assert service.query(collection, "www", timeout=10)
        assert calls == [1, 2]

    def test_retries_exhaust_with_cause(self, system, collection):
        def injector(kind, attempt):
            raise DeadlockError("always a victim")

        with DocumentService(
            system.db, self._config(injector, max_retries=2)
        ) as service:
            with pytest.raises(RetryExhaustedError) as excinfo:
                service.query(collection, "telnet", timeout=10)
        assert isinstance(excinfo.value.__cause__, DeadlockError)


class TestBackpressureAndLifecycle:
    def test_overload_rejects_with_service_overloaded(self, system, collection):
        service = DocumentService(
            system.db, ServiceConfig(workers=1, max_queue=2, auto_start=False)
        )
        f1 = service.submit_query(collection, "telnet")
        f2 = service.submit_query(collection, "www")
        with pytest.raises(ServiceOverloadedError):
            service.submit_query(collection, "nii")
        service.start()
        assert f1.result(10) is not None
        assert f2.result(10) is not None
        service.close()

    def test_request_timeout(self, system, collection):
        gate = threading.Event()
        running = threading.Event()

        def slow():
            running.set()
            gate.wait(5)

        with DocumentService(system.db, ServiceConfig(workers=1)) as service:
            service.submit_call(slow, label="slow")
            assert running.wait(5), "slow call never started"
            # The single worker is occupied; this query cannot finish in time.
            with pytest.raises(RequestTimeoutError):
                service.query(collection, "telnet", timeout=0.05)
            gate.set()

    def test_closed_service_rejects_and_fails_pending(self, system, collection):
        service = DocumentService(
            system.db, ServiceConfig(workers=1, auto_start=False)
        )
        pending = service.submit_query(collection, "telnet")
        service.close()
        with pytest.raises(ServiceClosedError):
            pending.result(1)
        with pytest.raises(ServiceClosedError):
            service.submit_query(collection, "www")
        with pytest.raises(ServiceClosedError):
            service.start()

    def test_close_is_idempotent_and_session_reports(self, system):
        session = Session(system.db, workers=1)
        assert session.pooled
        session.close()
        session.close()
        assert not session.service.running
