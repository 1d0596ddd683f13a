"""Unit coverage for sharded collections (an ``IRSCollection`` with
``shard_count=N``): routing, cross-loading through the store,
engine/system wiring, and the health section.

The *equivalence* guarantees live in ``tests/property/test_shard_equivalence``,
the union view's read contract (over 1/2/4 shards) in
``tests/irs/test_index_contract`` and the worker-fault behavior in
``tests/irs/test_shard_faults``; this file pins the structural contracts
those suites build on.
"""

from __future__ import annotations

import pytest

from repro.core import DocumentSystem
from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.engine import IRSEngine
from repro.irs.segments import SegmentConfig
from repro.irs.shards import routing_key, shard_of
from repro.store import SingleFileStore

TEXTS = [
    "www nii telnet",
    "telnet remote login",
    "nii policy pages",
    "www pages database",
    "database information retrieval",
    "telnet www nii remote",
    "information pages",
    "retrieval www",
]


def populated(shard_count=3, segment_config=None):
    collection = IRSCollection(
        "c", Analyzer(), segment_config=segment_config, shard_count=shard_count
    )
    for i, text in enumerate(TEXTS):
        collection.add_document(text, {"oid": f"1.{i}"})
    return collection


def shard_index_of(collection, doc_id):
    """The shard whose segment manager holds ``doc_id`` (None if none)."""
    for index, manager in enumerate(collection.segment_managers()):
        if doc_id in manager.doc_lengths:
            return index
    return None


def reloaded(tmp_path, collection, shard_count=0):
    """An engine holding ``collection`` after a checkpoint into a store and
    a load at ``shard_count`` shards (0: unsharded)."""
    engine = IRSEngine()
    engine._collections[collection.name] = collection
    path = str(tmp_path / "irs.store")
    with SingleFileStore(path) as store:
        store.checkpoint(engine)
    with SingleFileStore(path) as store:
        return store.load_engine(shard_count=shard_count, lazy=False)


class TestRouting:
    def test_shard_of_is_deterministic_and_in_range(self):
        for key in ("1.17", "doc:42", "anything"):
            first = shard_of(key, 7)
            assert 0 <= first < 7
            assert shard_of(key, 7) == first

    def test_single_shard_takes_everything(self):
        assert shard_of("whatever", 1) == 0
        assert shard_of("other", 0) == 0

    def test_routing_key_prefers_oid(self):
        assert routing_key({"oid": "1.5"}, 9) == "1.5"
        assert routing_key({}, 9) == "doc:9"
        assert routing_key({"other": "x"}, 9) == "doc:9"

    def test_documents_land_on_their_routed_shard(self):
        collection = populated()
        for doc_id in sorted(collection._documents):
            document = collection._documents[doc_id]
            expected = shard_of(
                routing_key(document.metadata, doc_id), collection.shard_count
            )
            assert shard_index_of(collection, doc_id) == expected

    def test_replace_keeps_the_document_on_its_shard(self):
        collection = populated()
        doc_id = 3
        before = shard_index_of(collection, doc_id)
        collection.replace_document(doc_id, "totally new text")
        assert shard_index_of(collection, doc_id) == before
        assert collection._documents[doc_id].text == "totally new text"

    def test_remove_clears_the_shard_assignment(self):
        collection = populated()
        collection.remove_document(2)
        assert 2 not in collection._documents
        assert shard_index_of(collection, 2) is None
        assert collection.index_of(2) is None

    def test_shard_count_must_not_be_negative(self):
        with pytest.raises(ValueError):
            IRSCollection("bad", shard_count=-1)

    def test_one_segment_manager_per_shard(self):
        def names(shard_count):
            collection = IRSCollection("c", shard_count=shard_count)
            return [manager.name for manager in collection.segment_managers()]

        assert names(0) == ["c"]
        assert names(1) == ["c#0"]
        assert names(3) == ["c#0", "c#1", "c#2"]


class TestUnionView:
    def test_view_is_read_only(self):
        # Documents enter through the collection (routing decides the
        # shard); the view offers no way around the routing table.
        collection = populated()
        assert not hasattr(collection.index, "add_document")
        assert not hasattr(collection.index, "remove_document")

    def test_epoch_strictly_increases_on_any_shard_write(self):
        collection = populated()
        before = collection.index.epoch
        collection.add_document("fresh words")
        assert collection.index.epoch > before

    def test_skew_stays_reasonable_under_hash_routing(self):
        collection = IRSCollection("skew", Analyzer(), shard_count=4)
        for i in range(400):
            collection.add_document(f"doc {i}", {"oid": f"1.{i}"})
        counts = [manager.document_count for manager in collection.segment_managers()]
        assert sum(counts) == 400
        mean = sum(counts) / len(counts)
        assert max(counts) / mean < 1.5


class TestPayloadCrossLoading:
    def test_sharded_round_trip_is_identical(self, tmp_path):
        collection = populated()
        clone = reloaded(tmp_path, collection, shard_count=3).collection("c")
        assert clone.shard_count == collection.shard_count
        assert clone.index.to_payload() == collection.index.to_payload()
        assert {
            d: shard_index_of(clone, d) for d in sorted(clone._documents)
        } == {
            d: shard_index_of(collection, d)
            for d in sorted(collection._documents)
        }

    def test_sharded_dump_flattens_into_plain_collection(self, tmp_path):
        collection = populated()
        flat = reloaded(tmp_path, collection).collection("c")
        assert flat.shard_count == 0 and len(flat.segment_managers()) == 1
        assert len(flat) == len(collection)
        assert flat.index.document_count == collection.index.document_count
        for term in collection.index.terms():
            assert flat.index.document_frequency(
                term
            ) == collection.index.document_frequency(term)

    def test_plain_dump_repartitions_into_shards(self, tmp_path):
        plain = IRSCollection("c", Analyzer())
        for i, text in enumerate(TEXTS):
            plain.add_document(text, {"oid": f"1.{i}"})
        sharded = reloaded(tmp_path, plain, shard_count=3).collection("c")
        assert sharded.shard_count == 3
        assert len(sharded) == len(plain)
        for term in plain.index.terms():
            assert sharded.index.document_frequency(
                term
            ) == plain.index.document_frequency(term)

    def test_shard_count_change_repartitions(self, tmp_path):
        collection = populated(shard_count=3)
        resharded = reloaded(tmp_path, collection, shard_count=5).collection("c")
        assert resharded.shard_count == 5
        assert resharded.index.document_count == collection.index.document_count
        # Every document sits on the shard its routing key selects.
        for doc_id in sorted(resharded._documents):
            document = resharded._documents[doc_id]
            assert shard_index_of(resharded, doc_id) == shard_of(
                routing_key(document.metadata, doc_id), 5
            )

    def test_segmented_shards_round_trip(self, tmp_path):
        collection = populated(segment_config=SegmentConfig(seal_document_count=2))
        clone = reloaded(tmp_path, collection, shard_count=3).collection("c")
        assert clone.index.to_payload() == collection.index.to_payload()


class TestPersistence:
    def _sharded_engine(self):
        engine = IRSEngine(shard_count=3)
        engine.create_collection("c")
        for text in TEXTS:
            engine.index_document("c", text)
        return engine

    def test_store_entry_layout_and_round_trip(self, tmp_path):
        engine = self._sharded_engine()
        original = engine.collection("c")
        path = str(tmp_path / "irs.store")
        with SingleFileStore(path) as store:
            store.checkpoint(engine)
            entry = store.manifest["collections"]["c"]
        assert entry["layout"] == "sharded" and entry["shard_count"] == 3
        assert "segments" not in entry and "memtable" not in entry
        assert [shard["memtable"] is not None for shard in entry["shards"]] == [
            bool(manager.document_count) for manager in original.segment_managers()
        ]
        with SingleFileStore(path) as store:
            clone = store.load_engine(shard_count=3, lazy=False).collection("c")
        assert clone.shard_count == 3
        assert clone.index.to_payload() == original.index.to_payload()
        assert [sorted(m.doc_lengths) for m in clone.segment_managers()] == [
            sorted(m.doc_lengths) for m in original.segment_managers()
        ]

    def test_layout_switch_replaces_the_stale_entry(self, tmp_path):
        """Reopening at another shard count and checkpointing rewrites the
        entry in the new layout; a pack then drops the old one's records."""
        reference = self._sharded_engine().query("c", "www nii").values
        path = str(tmp_path / "irs.store")
        with SingleFileStore(path) as store:
            store.checkpoint(self._sharded_engine())
        for shard_count, layout, stale in ((0, "segmented", "shards"), (3, "sharded", "segments")):
            with SingleFileStore(path) as store:
                engine = store.load_engine(shard_count=shard_count, lazy=False)
                store.checkpoint(engine)
                entry = store.manifest["collections"]["c"]
                assert entry["layout"] == layout and stale not in entry
                dead = store.stats()["dead_bytes"]
                assert dead > 0
                assert store.pack()["reclaimed_bytes"] >= dead
                assert store.stats()["dead_bytes"] == 0
            with SingleFileStore(path) as store:
                again = store.load_engine(shard_count=shard_count)
                assert again.query("c", "www nii").values == reference

    def test_sharded_store_loads_into_unsharded_engine(self, tmp_path):
        engine = self._sharded_engine()
        reference = engine.query("c", "www nii", top_k=4).values
        flat_engine = reloaded(tmp_path, engine.collection("c"))
        assert flat_engine.collection("c").shard_count == 0
        assert flat_engine.query("c", "www nii", top_k=4).values == reference

    def test_unsharded_store_loads_into_sharded_engine(self, tmp_path):
        engine = IRSEngine()
        engine.create_collection("c")
        for text in TEXTS:
            engine.index_document("c", text)
        reference = engine.query("c", "www nii", top_k=4).values
        sharded_engine = reloaded(tmp_path, engine.collection("c"), shard_count=4)
        assert sharded_engine.collection("c").shard_count == 4
        assert sharded_engine.query("c", "www nii", top_k=4).values == reference


class TestEngineWiring:
    def test_per_collection_shard_override(self):
        engine = IRSEngine(shard_count=2)
        defaulted = engine.create_collection("defaulted")
        overridden = engine.create_collection("overridden", shards=5)
        unsharded = engine.create_collection("unsharded", shards=0)
        assert defaulted.shard_count == 2
        assert overridden.shard_count == 5
        assert unsharded.shard_count == 0

    def test_shard_info_reports_layout_and_skew(self):
        engine = IRSEngine(shard_count=2)
        engine.create_collection("c")
        for text in TEXTS:
            engine.index_document("c", text)
        info = engine.shard_info()
        assert info["c"]["shards"] == 2
        assert sum(info["c"]["documents"]) == len(TEXTS)
        assert info["c"]["skew"] >= 1.0

    def test_segment_info_lists_each_shard_manager(self):
        engine = IRSEngine(
            shard_count=2, segment_config=SegmentConfig(seal_document_count=2)
        )
        engine.create_collection("c")
        for text in TEXTS:
            engine.index_document("c", text)
        names = set(engine.segment_info())
        assert {"c#0", "c#1"} <= names


class TestSystemWiring:
    def test_open_session_with_shards_attaches_the_executor(self):
        system = DocumentSystem(shards=2)
        try:
            assert system.engine.shard_executor is None
            session = system.open_session(shards=2)
            assert session is not None
            assert system.engine.shard_executor is not None
        finally:
            system.close()
        assert system.engine.shard_executor is None

    def test_health_includes_the_shards_section(self):
        system = DocumentSystem(shards=2)
        try:
            system.db.define_class(
                "Node", superclass="IRSObject", attributes={"content": "STRING"}
            )
            system.db.schema.get_class("Node").add_method(
                "getText", lambda obj, mode=0: obj.get("content") or ""
            )
            for text in TEXTS:
                system.db.create_object("Node", content=text)
            collection = system.create_collection("c", "ACCESS n FROM n IN Node")
            system.index_collection(collection)
            report = system.health()
            shards = report["shards"]
            assert shards["collections"]["c"]["shards"] == 2
            assert sum(shards["collections"]["c"]["documents"]) == len(TEXTS)
            assert shards["failovers"] == 0
            assert shards["executor_attached"] is False
            # Informational only: an empty idle system stays "ok".
            assert report["status"] == "ok"
        finally:
            system.close()

    def test_sharded_system_persists_and_reloads(self, tmp_path):
        directory = str(tmp_path / "store")
        system = DocumentSystem(directory=directory, shards=2)
        system.db.define_class(
            "Node", superclass="IRSObject", attributes={"content": "STRING"}
        )
        system.db.schema.get_class("Node").add_method(
            "getText", lambda obj, mode=0: obj.get("content") or ""
        )
        for text in TEXTS:
            system.db.create_object("Node", content=text)
        collection = system.create_collection("c", "ACCESS n FROM n IN Node")
        system.index_collection(collection)
        reference = system.engine.query("c", "www nii").values
        system.close()

        reopened = DocumentSystem(directory=directory, shards=2)
        try:
            assert reopened.engine.collection("c").shard_count == 2
            assert reopened.engine.query("c", "www nii").values == reference
        finally:
            reopened.close()
