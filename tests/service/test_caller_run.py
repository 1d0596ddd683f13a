"""Caller-run windows: the thread that waits for a request runs it.

A synchronous caller that finds no window running leads one on its own
thread; callers arriving meanwhile wait and the window's end hands the
turn to one of them, which drains everything queued as the next window.
``Gated`` holds the first window open on an event, so what queues behind
it does not depend on the host's speed.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import obs
from repro.errors import RequestTimeoutError, ServiceClosedError
from repro.service.config import ServiceConfig
from repro.service.executor import DocumentService
from tests.service.test_telemetry import QUERIES
from tests.support import wait_until


@pytest.fixture(autouse=True)
def enabled_obs():
    """Telemetry rides on results only while instrumentation is on."""
    with obs.instrumentation():
        yield


class Gated(DocumentService):
    """Records every admitted future; ``hold`` blocks its window on a gate."""

    def __init__(self, *args, **kwargs) -> None:
        self.admitted = []
        self.gate, self.holding = threading.Event(), threading.Event()
        super().__init__(*args, **kwargs)

    def _admit(self, request):
        self.admitted.append(request.future)
        return super()._admit(request)

    def hold(self) -> threading.Thread:
        """A caller whose window stays open until ``gate`` is set."""

        def held():
            self.holding.set()
            assert self.gate.wait(10)

        holder = threading.Thread(target=self.call, args=(held,), kwargs={"timeout": 30})
        holder.start()
        assert self.holding.wait(10)
        return holder

    def queued(self, count: int) -> None:
        wait_until(lambda: self._queue.qsize() == count, timeout=10)


def start(threads):
    for thread in threads:
        thread.start()
    return threads


class TestLeading:
    def test_a_lone_call_runs_on_its_callers_thread(self, system):
        ran_on = []
        with DocumentService(system.db, ServiceConfig(workers=2)) as service:
            service.call(lambda: ran_on.append(threading.current_thread()), timeout=10)
        assert ran_on == [threading.current_thread()]

    def test_a_lone_caller_in_a_loop_waits_for_riders_at_most_once(self, system, collection):
        """A leader that comes straight back may wait for riders; when none
        came it stops waiting, rather than paying the wait per request."""
        waits = []

        class Recording(DocumentService):
            def _collect(self, first, linger):
                waits.append(self._patience)
                return super()._collect(first, linger)

        with Recording(system.db, ServiceConfig(workers=2)) as service:
            for _ in range(4):
                for query in QUERIES:
                    service.query(collection, query, timeout=10)
                service.query_batch([(collection, query) for query in QUERIES], timeout=10)
        assert len(waits) == 4 * (len(QUERIES) + 1)
        assert sum(wait > 0 for wait in waits) <= 1

    def test_callers_behind_a_held_window_share_the_next_one(self, system, collection):
        service = Gated(system.db, ServiceConfig(workers=2, max_batch_per_worker=4))
        results = []
        with service:
            holder = service.hold()
            ask = lambda query: results.append(service.query(collection, query, timeout=10))
            threads = start([threading.Thread(target=ask, args=(q,)) for q in QUERIES[:7]])
            service.queued(7)
            service.gate.set()
            for thread in [holder, *threads]:
                thread.join(10)
        assert len(results) == 7
        assert {r.telemetry.window_size for r in results} == {7}
        assert {r.telemetry.group_size for r in results} == {7}


class TestTimeout:
    def test_a_follower_that_times_out_still_has_its_request_run(self, system):
        service = Gated(system.db, ServiceConfig(workers=1))
        ran = threading.Event()
        with service:
            holder = service.hold()
            with pytest.raises(RequestTimeoutError):
                service.call(ran.set, timeout=0.05)
            late = service.admitted[-1]
            assert not late.done()
            service.gate.set()
            assert late.result(10) is None  # the dispatcher ran it
            holder.join(10)
        assert ran.is_set()


class TestClose:
    def test_close_while_a_caller_leads_resolves_every_future(self, system, collection):
        service = Gated(system.db, ServiceConfig(workers=2))
        outcomes = []

        def ask(query):
            try:
                outcomes.append(service.query(collection, query, timeout=10))
            except ServiceClosedError as exc:
                outcomes.append(exc)

        holder = service.hold()
        threads = start([threading.Thread(target=ask, args=(q,)) for q in QUERIES[:3]])
        service.queued(3)
        closer = threading.Thread(target=service.close)
        closer.start()
        wait_until(lambda: service._closed, timeout=10)
        service.gate.set()
        for thread in [closer, holder, *threads]:
            thread.join(10)
        assert not closer.is_alive()
        assert all(future.done() for future in service.admitted)
        assert len(outcomes) == 3
        assert not service.running


class TestStress:
    def test_every_request_resolves_under_frequent_thread_switches(self, system, collection):
        """More callers than cores, mixed queries and calls, with the
        interpreter switching threads every few microseconds: each caller
        gets its own answer and the counts of admitted and completed
        requests agree."""
        expected = {q: [h.oid for h in system.session.query(collection, q, top_k=5)] for q in QUERIES}
        service = Gated(system.db, ServiceConfig(workers=2, max_batch_per_worker=2))
        answers, errors = [], []

        def client(offset: int) -> None:
            try:
                for i in range(12):
                    query = QUERIES[(offset + i) % len(QUERIES)]
                    if i % 4 == 3:
                        answers.append((i, service.call(lambda i=i: i, timeout=30)))
                    else:
                        hits = service.query(collection, query, top_k=5, timeout=30)
                        answers.append((query, [h.oid for h in hits]))
            except BaseException as exc:
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with service:
                threads = start([threading.Thread(target=client, args=(n,)) for n in range(8)])
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
        assert not errors, errors
        assert len(answers) == 8 * 12 == len(service.admitted)
        assert all(future.done() for future in service.admitted)
        for key, value in answers:
            assert value == (key if isinstance(key, int) else expected[key])
