"""Cross-layer instrumentation: WAL, recovery, transactions, locks."""

import threading

import pytest

from repro import obs
from repro.errors import DeadlockError
from repro.oodb.database import Database
from repro.oodb.locks import LockManager, LockMode


@pytest.fixture()
def instruments():
    with obs.instrumentation() as (tracer, metrics):
        yield tracer, metrics


class TestTransactionMetrics:
    def test_begin_commit_abort_counters(self, tmp_path, instruments):
        _tracer, metrics = instruments
        db = Database(directory=str(tmp_path / "db"))
        db.define_class("P", attributes={"x": "INT"})
        txn = db.begin()
        db.create_object("P", x=1)
        txn.commit()
        txn = db.begin()
        db.create_object("P", x=2)
        txn.rollback()
        counters = metrics.snapshot()["counters"]
        assert counters["oodb.txn.begins"] == 2
        assert counters["oodb.txn.commits"] == 1
        assert counters["oodb.txn.aborts"] == 1
        assert counters["oodb.wal.appends"] > 0


class TestWalAndRecoveryMetrics:
    def test_recovery_metrics_after_simulated_crash(self, tmp_path):
        directory = str(tmp_path / "db")
        db = Database(directory=directory)
        db.define_class("DOC", attributes={"title": "STRING"})
        txn = db.begin()
        db.create_object("DOC", title="committed-1")
        db.create_object("DOC", title="committed-2")
        txn.commit()
        txn = db.begin()
        db.create_object("DOC", title="never-committed")
        # Crash: no commit, no checkpoint, just drop the handle.
        db._wal.close()

        with obs.instrumentation() as (_tracer, metrics):
            recovered = Database(directory=directory)
            assert recovered.object_count() == 2
            snapshot = metrics.snapshot()
            assert snapshot["counters"]["oodb.recovery.runs"] == 1
            # 1 SCHEMA (define_class DDL) + 2 CREATEs (each carrying its
            # title) from the committed transactions.
            assert snapshot["counters"]["oodb.recovery.records_replayed"] == 3
            assert snapshot["gauges"]["oodb.recovery.last_records"] == 3
            assert snapshot["gauges"]["oodb.recovery.last_seconds"] > 0.0

    def test_recovery_emits_span(self, tmp_path):
        directory = str(tmp_path / "db")
        db = Database(directory=directory)
        db.define_class("DOC", attributes={"title": "STRING"})
        db.create_object("DOC", title="autocommitted")
        db._wal.close()
        with obs.instrumentation() as (tracer, _metrics):
            Database(directory=directory)
            names = [root.name for root in tracer.finished_traces()]
            assert "oodb.recovery" in names
            root = next(r for r in tracer.finished_traces() if r.name == "oodb.recovery")
            assert root.attributes["records_replayed"] > 0

    def test_fsync_and_checkpoint_metrics(self, tmp_path, instruments):
        _tracer, metrics = instruments
        db = Database(directory=str(tmp_path / "db"))
        db.define_class("P", attributes={"x": "INT"})
        db.create_object("P", x=1)  # autocommit -> COMMIT record -> fsync
        db.checkpoint()
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["oodb.wal.fsyncs"] >= 2
        assert snapshot["counters"]["oodb.checkpoints"] == 1
        assert snapshot["histograms"]["oodb.wal.fsync_seconds"]["count"] >= 2
        assert snapshot["histograms"]["oodb.checkpoint.seconds"]["count"] == 1

    def test_checkpoint_span_and_counters_say_what_was_written(self, tmp_path, instruments):
        tracer, metrics = instruments
        db = Database(directory=str(tmp_path / "db"))
        db.define_class("P", attributes={"x": "INT"})
        objects = [db.create_object("P", x=i) for i in range(3)]
        db.checkpoint()
        db.delete_object(objects[0])
        objects[1].set("x", 9)
        db.checkpoint()
        spans = [r for r in tracer.finished_traces() if r.name == "oodb.checkpoint"]
        assert [span.attributes["objects_written"] for span in spans] == [3, 1]
        counters = metrics.snapshot()["counters"]
        assert counters["oodb.checkpoint.objects"] == 4
        section = db._storage.manifest["objects"]
        assert section["deleted"] == [objects[0].oid]
        # The two object batches are all the store file's records.
        assert counters["store.bytes.appended"] == sum(length for _offset, length in section["batches"])
        db.close()


class TestLockMetrics:
    def test_lock_wait_is_counted_and_timed(self, instruments):
        _tracer, metrics = instruments
        manager = LockManager(timeout=5.0)
        manager.acquire(1, "obj", LockMode.EXCLUSIVE)
        acquired = threading.Event()

        def contender():
            manager.acquire(2, "obj", LockMode.SHARED)
            acquired.set()

        thread = threading.Thread(target=contender)
        thread.start()
        # Give the contender time to start waiting, then release.
        while metrics.snapshot()["counters"].get("oodb.lock.waits", 0) == 0:
            if acquired.is_set():  # pragma: no cover - lost the race, still fine
                break
        manager.release_all(1)
        thread.join(timeout=5.0)
        assert acquired.is_set()
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["oodb.lock.waits"] == 1
        assert snapshot["histograms"]["oodb.lock.wait_seconds"]["count"] == 1

    def test_deadlock_is_counted(self, instruments):
        _tracer, metrics = instruments
        manager = LockManager(timeout=5.0)
        manager.acquire(1, "a", LockMode.EXCLUSIVE)
        manager.acquire(2, "b", LockMode.EXCLUSIVE)
        failures = []

        def txn1():
            try:
                manager.acquire(1, "b", LockMode.EXCLUSIVE)
            except DeadlockError:
                failures.append(1)
                manager.release_all(1)

        thread = threading.Thread(target=txn1)
        thread.start()
        try:
            manager.acquire(2, "a", LockMode.EXCLUSIVE)
        except DeadlockError:
            failures.append(2)
            manager.release_all(2)
        thread.join(timeout=5.0)
        assert failures  # at least one side was chosen as victim
        assert metrics.snapshot()["counters"]["oodb.lock.deadlocks"] >= 1


class TestQueryMetrics:
    def test_query_span_and_histogram(self, instruments):
        tracer, metrics = instruments
        db = Database()
        db.define_class("P", attributes={"x": "INT"})
        for i in range(4):
            db.create_object("P", x=i)
        rows = db.query("ACCESS p FROM p IN P WHERE p.x >= 2;")
        assert len(rows) == 2
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["oodb.query.executed"] == 1
        assert snapshot["histograms"]["oodb.query.seconds"]["count"] == 1
        root = tracer.last_trace()
        assert root.name == "oodb.query"
        assert root.attributes["rows"] == 2
        child_names = {c.name for c in root.children}
        assert {"oodb.query.candidates", "oodb.query.join"} <= child_names

    def test_disabled_instrumentation_records_nothing(self):
        obs.disable()
        try:
            db = Database()
            db.define_class("P", attributes={"x": "INT"})
            db.create_object("P", x=1)
            db.query("ACCESS p FROM p IN P;")
            assert obs.metrics().snapshot() == {
                "counters": {},
                "gauges": {},
                "histograms": {},
                "rolling": {},
            }
            assert obs.tracer().last_trace() is None
        finally:
            obs.enable()
