"""SingleFileStore: both layouts round-trip, with sealed segments or with
every document still in the memtable; checkpoints are incremental.

Files written by older builds (a ``flat`` manifest entry) are pinned by
the fixtures of ``test_cross_loading.py``.
"""

import pytest

from repro.irs.engine import IRSEngine
from repro.irs.segments.segment import SegmentConfig
from repro.store import SingleFileStore

TEXTS = [
    "information retrieval over structured documents",
    "the oodbms stores structured document elements",
    "retrieval models score documents by relevance",
    "segments seal into immutable sorted runs",
    "sharded collections scatter scoring across workers",
    "the coupling buffers retrieval results persistently",
    "queries combine structure and content conditions",
    "document elements inherit irs object behaviour",
]

MODELS = ("inquery", "vector", "boolean")


def segment_config(layout):
    """``memtable``: the eight documents never seal."""
    return SegmentConfig(seal_document_count=100 if layout == "memtable" else 3)


def shard_count(layout):
    return 2 if layout == "sharded" else 0


def build_engine(layout):
    engine = IRSEngine(
        segment_config=segment_config(layout), shard_count=shard_count(layout)
    )
    engine.create_collection("docs")
    for i, text in enumerate(TEXTS):
        engine.index_document("docs", text, {"oid": f"OID{i}"})
    return engine


def rankings(engine, query="structured retrieval documents"):
    return {
        model: engine.query("docs", query, model=model).values
        for model in MODELS
    }


@pytest.mark.parametrize("layout", ["memtable", "segmented", "sharded"])
@pytest.mark.parametrize("lazy", [True, False])
class TestRoundTrip:
    def test_rankings_bit_identical(self, tmp_path, layout, lazy):
        engine = build_engine(layout)
        if layout == "memtable":
            assert not engine.collection("docs").segment_managers()[0].sealed_segments()
        store = SingleFileStore(str(tmp_path / "irs.store"))
        store.checkpoint(engine)
        expected = rankings(engine)
        store.close()

        again = SingleFileStore(str(tmp_path / "irs.store"))
        restored = again.load_engine(shard_count=shard_count(layout), lazy=lazy)
        restored.segment_config = segment_config(layout)
        assert rankings(restored) == expected
        again.close()

    def test_metadata_and_documents_survive(self, tmp_path, layout, lazy):
        engine = build_engine(layout)
        store = SingleFileStore(str(tmp_path / "irs.store"))
        store.checkpoint(engine)
        store.close()
        again = SingleFileStore(str(tmp_path / "irs.store"))
        restored = again.load_engine(shard_count=shard_count(layout), lazy=lazy)
        collection = restored.collection("docs")
        original = engine.collection("docs")
        assert len(collection) == len(original)
        assert collection.document(1).metadata == original.document(1).metadata
        assert collection.document(1).text == original.document(1).text
        again.close()


@pytest.mark.parametrize("layout", ["segmented", "sharded"])
class TestIncremental:
    def test_unchanged_checkpoint_appends_nothing_but_volatile_refs(
        self, tmp_path, layout
    ):
        engine = build_engine(layout)
        store = SingleFileStore(str(tmp_path / "irs.store"))
        first = store.checkpoint(engine)
        assert first["records_appended"] > 0
        second = store.checkpoint(engine)
        # Nothing changed: documents and sealed segments are all reused;
        # only the manifest itself is (by design) appended every time.
        assert second["records_appended"] == 0
        assert second["records_reused"] > 0
        store.close()

    def test_reload_at_the_stored_shard_count_appends_nothing(self, tmp_path, layout):
        """A load that keeps the stored managers references their records:
        the first checkpoint after it writes no record."""
        engine = build_engine(layout)
        engine.compact_collection("docs")  # every document in a sealed segment
        path = str(tmp_path / "irs.store")
        with SingleFileStore(path) as store:
            store.checkpoint(engine)
        with SingleFileStore(path) as store:
            restored = store.load_engine(shard_count=shard_count(layout), lazy=False)
            assert not restored.is_lazy("docs")
            stats = store.checkpoint(restored)
        assert stats["records_appended"] == 0
        assert stats["records_reused"] > 0

    def test_small_delta_appends_small(self, tmp_path, layout):
        engine = build_engine(layout)
        store = SingleFileStore(str(tmp_path / "irs.store"))
        first = store.checkpoint(engine)
        engine.index_document("docs", "one more tiny document", {"oid": "NEW"})
        delta = store.checkpoint(engine)
        assert 0 < delta["records_appended"] <= 2  # doc batch + memtable
        assert delta["bytes_appended"] < first["bytes_appended"]
        store.close()

    def test_sealed_segments_written_exactly_once(self, tmp_path, layout):
        engine = build_engine(layout)
        managers = engine.collection("docs").segment_managers()

        def sealed():
            return [s for m in managers for s in m.sealed_segments()]

        assert sealed()
        store = SingleFileStore(str(tmp_path / "irs.store"))
        store.checkpoint(engine)
        stamps = [s.store_stamp for s in sealed()]
        assert all(stamps)
        store.checkpoint(engine)
        assert [s.store_stamp for s in sealed()] == stamps
        store.close()

    def test_document_revision_delta(self, tmp_path, layout):
        engine = build_engine(layout)
        store = SingleFileStore(str(tmp_path / "irs.store"))
        store.checkpoint(engine)
        engine.replace_document("docs", 1, "replaced text about retrieval")
        stats = store.checkpoint(engine)
        # One doc batch holding exactly the replaced document, plus the
        # memtable the new revision landed in (other shards' are reused).
        entry = store.manifest["collections"]["docs"]
        last_batch = entry["doc_batches"][-1]
        batch = store.file.read_json(last_batch[0], last_batch[1])
        assert [d["doc_id"] for d in batch["documents"]] == [1]
        assert batch["documents"][0]["revision"] == 1
        assert stats["records_appended"] == 2
        store.close()

    def test_removals_travel_in_manifest(self, tmp_path, layout):
        engine = build_engine(layout)
        store = SingleFileStore(str(tmp_path / "irs.store"))
        store.checkpoint(engine)
        engine.remove_document("docs", 2)
        store.checkpoint(engine)
        entry = store.manifest["collections"]["docs"]
        assert 2 in entry["removed_docs"]
        restored = store.load_engine()
        assert 2 not in restored.collection("docs")._documents
        store.close()

    def test_mass_removal_triggers_rebatch(self, tmp_path, layout):
        engine = IRSEngine(shard_count=shard_count(layout))
        engine.create_collection("docs")
        for i in range(200):
            engine.index_document("docs", f"document number {i}", {})
        store = SingleFileStore(str(tmp_path / "irs.store"))
        store.checkpoint(engine)
        for i in range(1, 180):
            engine.remove_document("docs", i)
        store.checkpoint(engine)
        entry = store.manifest["collections"]["docs"]
        # More dead than alive: batches were rewritten from scratch and the
        # removal list reset.
        assert entry["removed_docs"] == []
        assert len(entry["doc_batches"]) == 1
        restored = store.load_engine()
        assert len(restored.collection("docs")) == 21
        store.close()


class TestDroppedCollections:
    def test_dropped_collection_leaves_next_manifest(self, tmp_path):
        engine = build_engine("segmented")
        engine.create_collection("extra")
        engine.index_document("extra", "short lived", {})
        store = SingleFileStore(str(tmp_path / "irs.store"))
        store.checkpoint(engine)
        engine.drop_collection("extra")
        store.checkpoint(engine)
        assert set(store.manifest["collections"]) == {"docs"}
        restored = store.load_engine()
        assert restored.collection_names() == ["docs"]
        store.close()
