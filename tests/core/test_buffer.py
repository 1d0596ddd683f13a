"""The persistent IRS-result buffer (Section 4.2 / Figure 3)."""

import pytest

from repro import obs
from repro.core.buffer import ResultBuffer
from repro.core.collection import _create_collection
from repro.core.context import coupling_context
from repro.oodb.oid import OID


@pytest.fixture
def buffer_and_collection(system):
    """A buffer, its COLLECTION and the fresh registry the test counts in."""
    collection = _create_collection(system.db, "c", "ACCESS p FROM p IN IRSObject")
    with obs.instrumentation() as (_tracer, metrics):
        yield ResultBuffer(collection), collection, metrics


class TestLookupStore:
    def test_miss_then_hit(self, buffer_and_collection):
        buffer, _collection, metrics = buffer_and_collection
        assert buffer.lookup("www") is None
        assert metrics.counter("coupling.buffer.misses").value == 1
        buffer.store("www", {OID(1): 0.5})
        assert buffer.lookup("www") == {OID(1): 0.5}
        assert metrics.counter("coupling.buffer.hits").value == 1

    def test_store_writes_the_attribute_without_counter_side_effects(
        self, buffer_and_collection
    ):
        buffer, collection, metrics = buffer_and_collection
        buffer.store("www", {})
        assert "|www" in collection.get("buffer")
        assert "|nii" not in collection.get("buffer")
        assert metrics.counter("coupling.buffer.hits").value == 0
        assert metrics.counter("coupling.buffer.misses").value == 0

    def test_model_distinguishes_entries(self, buffer_and_collection):
        buffer, _collection, _metrics = buffer_and_collection
        buffer.store("www", {OID(1): 0.5}, model="inquery")
        assert buffer.lookup("www", model="vector") is None
        assert buffer.lookup("www", model="inquery") == {OID(1): 0.5}

    def test_empty_result_is_a_valid_entry(self, buffer_and_collection):
        buffer, _collection, metrics = buffer_and_collection
        buffer.store("rare", {})
        assert buffer.lookup("rare") == {}
        assert metrics.counter("coupling.buffer.hits").value == 1


class TestAmend:
    def test_amend_adds_derived_value(self, buffer_and_collection):
        buffer, _collection, _metrics = buffer_and_collection
        buffer.store("www", {OID(1): 0.5})
        buffer.amend("www", OID(9), 0.33)
        assert buffer.lookup("www")[OID(9)] == 0.33

    def test_amend_creates_entry_when_absent(self, buffer_and_collection):
        buffer, _collection, _metrics = buffer_and_collection
        buffer.amend("fresh", OID(2), 0.1)
        assert buffer.lookup("fresh") == {OID(2): 0.1}


class TestInvalidation:
    def test_invalidate_clears_all(self, buffer_and_collection):
        buffer, collection, _metrics = buffer_and_collection
        buffer.store("a", {OID(1): 0.5})
        buffer.store("b", {OID(2): 0.6})
        assert len(collection.get("buffer")) == 2
        buffer.invalidate()
        assert len(collection.get("buffer")) == 0
        assert buffer.lookup("a") is None


class TestPersistence:
    def test_buffer_is_a_database_attribute(self, buffer_and_collection):
        buffer, collection, _metrics = buffer_and_collection
        buffer.store("www", {OID(3): 0.7})
        stored = collection.get("buffer")
        assert "|www" in stored  # model-prefixed key
        assert stored["|www"] == {"OID3": 0.7}

    def test_buffer_survives_checkpoint_recovery(self, tmp_path):
        from repro.core import DocumentSystem

        path = str(tmp_path)
        system = DocumentSystem(directory=path)
        collection = _create_collection(system.db, "c", "ACCESS p FROM p IN IRSObject")
        ResultBuffer(collection).store("www", {OID(5): 0.9})
        collection_oid = collection.oid
        system.close()

        reopened = DocumentSystem(directory=path)
        revived = reopened.db.get_object(collection_oid)
        buffer = ResultBuffer(revived)
        assert buffer.lookup("www") == {OID(5): 0.9}
        reopened.close()


class TestDecodedView:
    """The process-local ``{key: {OID: value}}`` mirror of the stored buffer."""

    def test_hits_share_one_decoded_mapping(self, buffer_and_collection):
        buffer, collection, metrics = buffer_and_collection
        values = {OID(1): 0.5, OID(2): 0.25}
        buffer.store("www", values)
        first = buffer.lookup("www")
        assert metrics.counter("coupling.buffer.hits").value == 1
        other = ResultBuffer(collection).lookup("www")
        assert first is values and other is values  # decoded once, never re-parsed
        assert metrics.counter("coupling.buffer.hits").value == 2  # one per buffer

    def test_stored_shape_written_behind_the_view_is_decoded_on_demand(
        self, buffer_and_collection
    ):
        buffer, collection, _metrics = buffer_and_collection
        buffer.store("www", {OID(1): 0.5})
        assert buffer.lookup("www") == {OID(1): 0.5}
        collection.set("buffer", {"|www": {"OID1": 0.75}, "|nii": {"OID4": 0.1}})
        assert buffer.lookup("www") == {OID(1): 0.75}
        assert buffer.lookup("nii") == {OID(4): 0.1}

    def test_reset_of_the_attribute_empties_the_view(self, buffer_and_collection):
        buffer, collection, metrics = buffer_and_collection
        buffer.store("www", {OID(1): 0.5})
        assert buffer.lookup("www") is not None
        collection.set("buffer", {})
        assert buffer.lookup("www") is None
        assert metrics.counter("coupling.buffer.misses").value == 1

    def test_unrelated_write_to_the_collection_keeps_answers_right(
        self, buffer_and_collection
    ):
        buffer, collection, _metrics = buffer_and_collection
        buffer.store("www", {OID(1): 0.5})
        collection.set("model", "vector")
        assert buffer.lookup("www") == {OID(1): 0.5}  # key without a model
        assert buffer.lookup("www", model="vector") is None

    def test_amend_replaces_the_published_mapping_instead_of_changing_it(
        self, buffer_and_collection
    ):
        buffer, collection, _metrics = buffer_and_collection
        buffer.store("www", {OID(1): 0.5})
        held = buffer.lookup("www")
        buffer.amend("www", OID(9), 0.33)
        assert held == {OID(1): 0.5}  # a reader iterating it is undisturbed
        assert buffer.lookup("www") == {OID(1): 0.5, OID(9): 0.33}
        assert collection.get("buffer")["|www"] == {"OID1": 0.5, "OID9": 0.33}

    def test_amends_are_merged_once_by_the_next_lookup_of_the_whole_result(
        self, buffer_and_collection
    ):
        buffer, collection, _metrics = buffer_and_collection
        buffer.store("www", {OID(i): 0.5 for i in range(100)})
        published = buffer.lookup("www")
        for i in range(20):
            buffer.amend("www", OID(1000 + i), 0.25)
            # A single-value reader copies nothing: the entry as published,
            # the derived value from the side table.
            assert buffer.lookup("www", merged=False) is published
            assert buffer.amended("www", OID(1000 + i)) == 0.25
        assert buffer.amended("www", OID(5)) is None
        merged = buffer.lookup("www")
        assert len(merged) == 120 and merged[OID(1019)] == 0.25
        assert buffer.lookup("www") is merged  # nothing pending: no new copy
        assert buffer.amended("www", OID(1000)) is None  # folded in
        assert len(collection.get("buffer")["|www"]) == 120

    def test_abort_restores_stored_buffer_and_view(self, system, buffer_and_collection):
        buffer, collection, _metrics = buffer_and_collection
        buffer.store("www", {OID(1): 0.5})
        assert buffer.lookup("www") == {OID(1): 0.5}
        txn = system.db.begin()
        buffer.amend("www", OID(9), 0.33)
        buffer.store("nii", {OID(2): 0.4})
        assert buffer.lookup("www") == {OID(1): 0.5, OID(9): 0.33}
        assert buffer.lookup("nii") == {OID(2): 0.4}
        txn.rollback()
        assert collection.get("buffer") == {"|www": {"OID1": 0.5}}
        assert buffer.lookup("www") == {OID(1): 0.5}
        assert buffer.lookup("nii") is None

    def test_abort_of_an_invalidation_brings_the_results_back(
        self, system, buffer_and_collection
    ):
        buffer, collection, _metrics = buffer_and_collection
        buffer.store("www", {OID(1): 0.5})
        txn = system.db.begin()
        buffer.invalidate()
        assert buffer.lookup("www") is None
        txn.rollback()
        assert buffer.lookup("www") == {OID(1): 0.5}

    def test_view_is_not_persisted(self, tmp_path):
        from repro.core import DocumentSystem

        path = str(tmp_path)
        system = DocumentSystem(directory=path)
        collection = _create_collection(system.db, "c", "ACCESS p FROM p IN IRSObject")
        system.checkpoint()  # IRS state durable: reopening will not reindex
        buffer = ResultBuffer(collection)
        buffer.store("www", {OID(5): 0.9})
        buffer.amend("www", OID(6), 0.1)
        collection_oid = collection.oid
        system.db._wal.close()  # crash: recovery replays the item records

        reopened = DocumentSystem(directory=path)
        revived = reopened.db.get_object(collection_oid)
        assert coupling_context(reopened.db).buffer_view(collection_oid).entries == {}
        assert revived.get("buffer") == {"|www": {"OID5": 0.9, "OID6": 0.1}}
        assert ResultBuffer(revived).lookup("www") == {
            OID(5): 0.9, OID(6): 0.1,
        }
        reopened.close()


class TestGenerationGuard:
    """A result computed before a buffer reset is not written after it."""

    def test_store_after_reset_since_lookup_is_dropped(self, buffer_and_collection):
        buffer, collection, _metrics = buffer_and_collection
        assert buffer.lookup("www") is None  # miss: the IRS would be asked now
        collection.set("buffer", {})  # propagation changed the index meanwhile
        buffer.store("www", {OID(1): 0.5})  # computed from the old index
        assert collection.get("buffer") == {}
        assert ResultBuffer(collection).lookup("www") is None

    def test_amend_after_reset_since_lookup_is_dropped(self, buffer_and_collection):
        buffer, collection, _metrics = buffer_and_collection
        buffer.store("www", {OID(1): 0.5})
        reader = ResultBuffer(collection)
        assert reader.lookup("www") == {OID(1): 0.5}
        collection.set("buffer", {})
        ResultBuffer(collection).store("www", {OID(1): 0.9})
        reader.amend("www", OID(9), 0.33)  # derived from the 0.5 result
        assert collection.get("buffer") == {"|www": {"OID1": 0.9}}

    def test_invalidating_an_empty_buffer_logs_nothing_but_moves_the_generation(
        self, tmp_path
    ):
        from repro.core import DocumentSystem

        system = DocumentSystem(directory=str(tmp_path))  # durable: it has a log to read
        collection = _create_collection(system.db, "c", "ACCESS p FROM p IN IRSObject")
        buffer = ResultBuffer(collection)
        assert buffer.lookup("www") is None  # a miss: the result gets computed
        logged = len(system.db._wal)
        version = system.db.write_version(collection.oid)
        ResultBuffer(collection).invalidate()  # index changed
        assert len(system.db._wal) == logged
        assert system.db.write_version(collection.oid) == version
        buffer.store("www", {OID(1): 0.5})  # computed before the change: refused
        assert collection.get("buffer") == {}
        assert buffer.lookup("www") is None
        buffer.store("www", {OID(1): 0.9})  # computed after it: kept
        assert buffer.lookup("www") == {OID(1): 0.9}
        system.close()

    def test_writes_in_the_same_generation_go_through(self, buffer_and_collection):
        buffer, collection, _metrics = buffer_and_collection
        assert buffer.lookup("www") is None
        ResultBuffer(collection).store("nii", {OID(2): 0.1})
        buffer.store("www", {OID(1): 0.5})  # item writes are no reset
        assert buffer.lookup("www") == {OID(1): 0.5}


class TestLogGrowth:
    def test_amend_log_bytes_do_not_depend_on_buffer_size(self, tmp_path):
        """N amends onto a 5 000-entry buffer append O(N) bytes, not O(N * size)."""
        import os

        from repro import obs
        from repro.core import DocumentSystem

        system = DocumentSystem(directory=str(tmp_path))
        collection = _create_collection(system.db, "c", "ACCESS p FROM p IN IRSObject")
        buffer = ResultBuffer(collection)
        buffer.store("www", {OID(i): 0.5 for i in range(5000)})
        wal_path = os.path.join(str(tmp_path), "db", "wal.log")
        system.db._wal._file.flush()
        amends = 50
        with obs.instrumentation() as (_tracer, metrics):
            before = os.path.getsize(wal_path)
            for i in range(amends):
                buffer.amend("www", OID(10_000 + i), 0.25)
            system.db._wal._file.flush()
            grown = os.path.getsize(wal_path) - before
            counted = metrics.snapshot()["counters"]["oodb.wal.bytes"]
        assert counted == grown
        # BEGIN + ITEM + COMMIT: a few hundred bytes each time, where a
        # whole-buffer WRITE record took about 100 kB.
        assert grown <= amends * 400
        items = [r for r in system.db._wal.records() if r.kind == "ITEM"][-amends:]
        assert max(len(r.to_json()) for r in items) < 200
        assert len(buffer.lookup("www")) == 5000 + amends
        system.close()

    def test_statement_buffers_and_amends_in_one_logged_group(self, tmp_path):
        """One commit (one sync) per statement, not one per derived object."""
        from repro import obs
        from repro.core import DocumentSystem
        from repro.core.collection import index_objects
        from repro.workloads.corpus import CorpusGenerator, load_corpus

        system = DocumentSystem(directory=str(tmp_path))
        load_corpus(system, CorpusGenerator(seed=5).corpus(documents=6, paragraphs=2))
        collection = _create_collection(system.db, "c", "ACCESS p FROM p IN PARA")
        index_objects(collection)
        with obs.instrumentation() as (_tracer, metrics):
            system.query(
                "ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(c, 'www') > 0.4",
                {"c": collection},
            )
            counters = metrics.snapshot()["counters"]
        assert counters["coupling.buffer.stores"] == 1
        assert counters["coupling.buffer.amends"] == 6
        assert counters["oodb.wal.fsyncs"] == 1
        group = [r for r in system.db._wal.records()][-9:]
        assert [r.kind for r in group] == ["BEGIN"] + ["ITEM"] * 7 + ["COMMIT"]
        assert len({r.txn_id for r in group}) == 1
        system.close()
