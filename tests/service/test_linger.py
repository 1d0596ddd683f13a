"""The dispatcher's linger rule and ``query_batch`` as one admission unit.

A window waits to fill only right after a window that filled, and at most
as long as that window ran (:func:`linger_after`).  No assertion depends
on how fast the host is: the rule is checked as a function, and the
dispatcher is observed through the linger it hands to ``_collect`` and
through the telemetry its windows stamp on results.  ``SlowAdmission``
only widens the gaps between puts, so a batch that is not admitted as one
unit would be split.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.service.config import ServiceConfig
from repro.service.executor import DocumentService, linger_after
from tests.service.test_telemetry import QUERIES

CONFIG = dict(workers=2, max_batch_per_worker=4)  # window_size 8


@pytest.fixture(autouse=True)
def enabled_obs():
    """Telemetry rides on results only while instrumentation is on."""
    with obs.instrumentation():
        yield


class Recording(DocumentService):
    """Records the linger each window was collected with."""

    def __init__(self, *args, **kwargs) -> None:
        self.lingers = []
        super().__init__(*args, **kwargs)

    def _collect(self, first, linger):
        self.lingers.append(linger)
        return super()._collect(first, linger)


class Lingering(DocumentService):
    """Collects every window with a linger far longer than any test."""

    def __init__(self, *args, **kwargs) -> None:
        self.lingering = threading.Event()
        super().__init__(*args, **kwargs)

    def _collect(self, first, linger):
        self.lingering.set()
        return super()._collect(first, 600.0)


class SlowAdmission(DocumentService):
    """Gives the dispatcher a chance to run between two admissions."""

    def _admit(self, request):
        future = super()._admit(request)
        time.sleep(0.001)
        return future


class TestRule:
    def test_full_window_lingers_next_time(self):
        assert linger_after(8, 8, 0.004) == 0.004

    def test_underfull_window_does_not(self):
        assert linger_after(7, 8, 0.004) == 0.0
        assert linger_after(1, 8, 5.0) == 0.0

    def test_bound_is_the_last_windows_run_time(self):
        for run_seconds in (0.0, 0.0003, 0.02, 1.5):
            assert linger_after(32, 32, run_seconds) == run_seconds


class TestDispatcher:
    def test_linger_follows_the_last_window(self, system, collection):
        service = Recording(system.db, ServiceConfig(auto_start=False, **CONFIG))
        with service:
            futures = [service.submit_query(collection, q) for q in QUERIES]
            started = time.perf_counter()
            service.start()
            full = [future.result(10) for future in futures]
            assert [r.telemetry.window_size for r in full] == [8] * 8
            service.query(collection, "WWW", timeout=10)  # underfull
            # The full window's run time was taken before this one opened.
            bound = time.perf_counter() - started
            service.query(collection, "NII", timeout=10)
        first, after_full, after_underfull = service.lingers
        assert first == 0.0
        assert 0.0 < after_full <= bound
        assert after_underfull == 0.0

    def test_linger_ends_when_the_window_fills(self, system, collection):
        service = Lingering(system.db, ServiceConfig(**CONFIG))
        with service:
            first = service.submit_query(collection, QUERIES[0])
            assert service.lingering.wait(10)
            rest = [service.submit_query(collection, q) for q in QUERIES[1:]]
            results = [f.result(10) for f in [first, *rest]]
        assert [r.telemetry.window_size for r in results] == [8] * 8

    def test_close_during_a_linger_fails_nothing(self, system, collection):
        service = Lingering(system.db, ServiceConfig(**CONFIG))
        future = service.submit_query(collection, "WWW")
        assert service.lingering.wait(10)
        service.close()
        assert future.done()
        assert future.exception() is None
        assert future.result().telemetry.window_size == 1


class TestQueryBatchAdmission:
    @pytest.mark.parametrize("service_class", [DocumentService, SlowAdmission])
    def test_batch_lands_in_one_window(self, system, collection, service_class):
        with service_class(system.db, ServiceConfig(**CONFIG)) as service:
            assert service.running
            results = service.query_batch(
                [(collection, query) for query in QUERIES], timeout=10
            )
        for result in results:
            assert result.telemetry.window_size == 8
            assert result.telemetry.group_size == 8

    def test_longer_batch_is_admitted_a_window_at_a_time(self, system, collection):
        with SlowAdmission(system.db, ServiceConfig(**CONFIG)) as service:
            results = service.query_batch(
                [(collection, query) for query in QUERIES * 2], timeout=10
            )
        assert [r.telemetry.window_size for r in results] == [8] * 16
