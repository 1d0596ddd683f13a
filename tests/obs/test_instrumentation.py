"""Cross-layer instrumentation: WAL, recovery, transactions, locks, coupling."""

import threading

import pytest

from repro import obs
from repro.core import DocumentSystem
from repro.core.admin import system_report
from repro.core.collection import _create_collection, _get_irs_result, index_objects
from repro.core.mixed import evaluate_independent
from repro.errors import DeadlockError
from repro.oodb.database import Database
from repro.oodb.locks import LockManager, LockMode
from repro.sgml.mmf import build_document, mmf_dtd


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


class TestCouplingCountsEachEventOnce:
    """The registry is the one place an IRS call, a buffer hit or miss, a
    derivation or a cancelled propagation is counted: each event moves its
    counter by exactly one (a cancelled pair by two), nothing else does."""

    PREFIXES = ("coupling.", "irs.query.", "irs.result_cache.", "irs.index.")

    def test_each_coupling_event_moves_its_counter_once(self, instruments, mmf_system):
        _tracer, metrics = instruments
        system = mmf_system
        collection = _create_collection(
            system.db, "collPara", "ACCESS p FROM p IN PARA", update_policy="deferred"
        )
        index_objects(collection)
        last = {}

        def moved():
            nonlocal last
            now = {
                name: value
                for name, value in metrics.snapshot()["counters"].items()
                if name.startswith(self.PREFIXES) and name != "irs.index.epoch_bumps"
            }
            delta = {name: value - last.get(name, 0) for name, value in now.items()}
            last = now
            return {name: value for name, value in delta.items() if value}

        assert moved() == {"coupling.indexObjects.calls": 1, "irs.index.additions": 6}

        # An inline query misses the buffer and asks the IRS, then hits.
        _get_irs_result(collection, "www")
        _get_irs_result(collection, "www")
        assert moved() == {
            "coupling.getIRSResult.calls": 2,
            "coupling.buffer.misses": 1,
            "coupling.buffer.stores": 1,
            "coupling.buffer.hits": 1,
            "irs.query.executed": 1,
            "irs.result_cache.misses": 1,
        }
        system.engine.query("collPara", "www")  # the engine's result LRU hits
        assert moved() == {"irs.query.executed": 1, "irs.result_cache.hits": 1}

        root = system.roots[0]
        collection.set("update_policy", "eager")
        collection.send("insertObject", system.loader.insert_element(root, "PARA", "eager gopher"))
        assert moved() == {
            "coupling.updates.logged": 1,
            "coupling.updates.propagated": 1,
            "irs.index.additions": 1,
        }

        collection.set("update_policy", "deferred")
        doomed = system.loader.insert_element(root, "PARA", "ephemeral")
        collection.send("insertObject", doomed)
        collection.send("deleteObject", doomed)
        assert moved() == {"coupling.updates.logged": 2, "coupling.updates.cancelled": 2}

        collection.send("insertObject", system.loader.insert_element(root, "PARA", "forced gopher"))
        _get_irs_result(collection, "gopher")  # pending: propagation is forced
        assert moved() == {
            "coupling.updates.logged": 1,
            "coupling.updates.forced_propagations": 1,
            "coupling.updates.propagated": 1,
            "irs.index.additions": 1,
            "coupling.getIRSResult.calls": 1,
            "coupling.buffer.misses": 1,
            "coupling.buffer.stores": 1,
            "irs.query.executed": 1,
            "irs.result_cache.misses": 1,
        }

        # One getIRSValue evaluation per statement; the one PARA outside
        # the collection (``doomed``) derives its value.
        system.db.query(
            "ACCESS p FROM p IN PARA WHERE p -> getIRSValue(c, 'www') > 0.1",
            {"c": collection},
        )
        assert moved() == {
            "coupling.getIRSValue.calls": 1,
            "coupling.getIRSResult.calls": 1,
            "coupling.buffer.misses": 1,  # propagation reset the buffer
            "coupling.buffer.stores": 1,
            "coupling.derivations": 1,
            "coupling.buffer.amends": 1,
            "irs.query.executed": 1,
            "irs.result_cache.epoch_invalidations": 1,
            "irs.result_cache.misses": 1,
        }

    def test_two_systems_count_in_one_registry(self, instruments):
        """Counts are process-wide: no system keeps its own."""
        _tracer, metrics = instruments
        systems = [DocumentSystem(), DocumentSystem()]
        for system in systems:
            system.register_dtd(mmf_dtd())
            system.add_document(build_document("T", ["the www grows"]), dtd=mmf_dtd())
            collection = _create_collection(system.db, "c", "ACCESS p FROM p IN PARA")
            index_objects(collection)
            _get_irs_result(collection, "www")
        counters = metrics.snapshot()["counters"]
        assert counters["irs.query.executed"] == 2
        assert counters["coupling.buffer.misses"] == 2

    def test_disabled_instrumentation_counts_nothing(self, corpus_system):
        collection = _create_collection(corpus_system.db, "c", "ACCESS p FROM p IN PARA")
        index_objects(collection)
        query = "ACCESS p FROM p IN PARA WHERE p -> getIRSValue(coll, 'www') > 0.45"
        obs.disable()
        try:
            outcome = evaluate_independent(corpus_system.db, query, {"coll": collection})
            report = system_report(corpus_system.db)
        finally:
            obs.enable()
        assert outcome.rows  # the query ran and asked the IRS ...
        assert outcome.irs_queries == 0  # ... and nothing counted it
        assert report["irs_queries_executed"] == 0
        assert report["buffer_hit_rate"] == 0.0
