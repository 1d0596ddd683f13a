"""SingleFileStore: both layouts round-trip, with sealed segments or with
every document still in the memtable, and so does a ``sharded`` entry
older builds wrote; checkpoints are incremental, also after opening one.

The files real older builds wrote (``flat`` and ``sharded`` manifest
entries) are pinned by the fixtures of ``test_cross_loading.py``; the
``sharded`` layout here is written in their shape by ``tests.legacy``.
"""

import pytest

from repro.irs.engine import IRSEngine
from repro.irs.segments.segment import SegmentConfig
from repro.store import SingleFileStore
from tests.legacy import ShardedHistory, write_sharded_store

TEXTS = [
    "information retrieval over structured documents",
    "the oodbms stores structured document elements",
    "retrieval models score documents by relevance",
    "segments seal into immutable sorted runs",
    "hash partitions once split the collection across workers",
    "the coupling buffers retrieval results persistently",
    "queries combine structure and content conditions",
    "document elements inherit irs object behaviour",
]

MODELS = ("inquery", "vector", "boolean")


def segment_config(layout):
    """``memtable``: the eight documents never seal."""
    return SegmentConfig(seal_document_count=100 if layout == "memtable" else 3)


def build_engine(layout, texts=TEXTS, config=None):
    engine = IRSEngine(segment_config=config or segment_config(layout))
    engine.create_collection("docs")
    for i, text in enumerate(texts):
        engine.index_document("docs", text, {"oid": f"OID{i}"})
    return engine


def sharded_history(texts=TEXTS, config=None):
    """``texts`` as an older build stored them: two shards, each sealing
    every three documents unless ``config`` says otherwise."""
    history = ShardedHistory(
        "docs", 2, segment_config=config or segment_config("sharded")
    )
    for i, text in enumerate(texts):
        history.add_document(text, {"oid": f"OID{i}"})
    return history


def stored(tmp_path, layout, engine):
    """The path of a store holding ``engine``'s documents: checkpointed
    from it, or — ``sharded`` — written as an older build's entry."""
    path = str(tmp_path / "irs.store")
    if layout == "sharded":
        write_sharded_store(path, sharded_history())
    else:
        with SingleFileStore(path) as store:
            store.checkpoint(engine)
    return path


def opened(tmp_path, layout, texts=TEXTS, config=None):
    """``(engine, store, first)``: an open store, the engine it holds and
    what writing the store appended.  ``sharded``: the engine is what
    opening the older entry gives — the import at open rewrites it as
    ``segmented`` — checkpointed once."""
    path = str(tmp_path / "irs.store")
    if layout == "sharded":
        first = write_sharded_store(path, sharded_history(texts, config))
        store = SingleFileStore(path)
        engine = store.load_engine(lazy=False)
        store.checkpoint(engine)
        return engine, store, first
    engine = build_engine(layout, texts, config)
    store = SingleFileStore(path)
    return engine, store, store.checkpoint(engine)


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
            assert not engine.collection("docs").segments.sealed_segments()
        again = SingleFileStore(stored(tmp_path, layout, engine))
        restored = again.load_engine(lazy=lazy)
        restored.segment_config = segment_config(layout)
        assert rankings(restored) == rankings(engine)
        again.close()

    def test_metadata_and_documents_survive(self, tmp_path, layout, lazy):
        engine = build_engine(layout)
        again = SingleFileStore(stored(tmp_path, layout, engine))
        restored = again.load_engine(lazy=lazy)
        collection = restored.collection("docs")
        original = engine.collection("docs")
        assert len(collection) == len(original)
        assert collection.document(1).metadata == original.document(1).metadata
        assert collection.document(1).text == original.document(1).text
        again.close()


@pytest.mark.parametrize("layout", ["segmented", "sharded"])
class TestIncremental:
    def test_entry_is_written_segmented(self, tmp_path, layout):
        _engine, store, _first = opened(tmp_path, layout)
        entry = store.manifest["collections"]["docs"]
        assert entry["layout"] == "segmented" and entry["segments"]
        assert not {"shards", "shard_count", "index"} & set(entry)
        assert store.manifest["engine"] == {"default_model": "inquery"}
        store.close()

    def test_unchanged_checkpoint_appends_nothing_but_volatile_refs(
        self, tmp_path, layout
    ):
        engine, store, first = opened(tmp_path, layout)
        assert first["records_appended"] > 0
        second = store.checkpoint(engine)
        # Nothing changed: documents and sealed segments are all reused;
        # only the manifest itself is (by design) appended every time.
        assert second["records_appended"] == 0
        assert second["records_reused"] > 0
        store.close()

    def test_reload_appends_nothing(self, tmp_path, layout):
        """A load references the stored segment records: the first
        checkpoint after it writes no record."""
        engine, store, _first = opened(tmp_path, layout)
        engine.compact_collection("docs")  # every document in a sealed segment
        store.checkpoint(engine)
        store.close()
        with SingleFileStore(store.path) as store:
            restored = store.load_engine(lazy=False)
            assert not restored.is_lazy("docs")
            stats = store.checkpoint(restored)
        assert stats["records_appended"] == 0
        assert stats["records_reused"] > 0

    def test_small_delta_appends_small(self, tmp_path, layout):
        engine, store, first = opened(tmp_path, layout)
        engine.index_document("docs", "one more tiny document", {"oid": "NEW"})
        delta = store.checkpoint(engine)
        assert 0 < delta["records_appended"] <= 2  # doc batch + sealed memtable
        assert delta["bytes_appended"] < first["bytes_appended"]
        store.close()

    def test_sealed_segments_written_exactly_once(self, tmp_path, layout):
        engine, store, _first = opened(tmp_path, layout)
        manager = engine.collection("docs").segments

        def sealed():
            return list(manager.sealed_segments())

        assert sealed()
        stamps = [s.store_stamp for s in sealed()]
        assert all(stamps)
        store.checkpoint(engine)
        assert [s.store_stamp for s in sealed()] == stamps
        store.close()

    def test_document_revision_delta(self, tmp_path, layout):
        engine, store, _first = opened(tmp_path, layout)
        engine.replace_document("docs", 1, "replaced text about retrieval")
        stats = store.checkpoint(engine)
        # One doc batch holding exactly the replaced document, plus the
        # memtable the new revision landed in.
        entry = store.manifest["collections"]["docs"]
        last_batch = entry["doc_batches"][-1]
        batch = store.file.read_json(last_batch[0], last_batch[1])
        assert [d["doc_id"] for d in batch["documents"]] == [1]
        assert batch["documents"][0]["revision"] == 1
        assert stats["records_appended"] == 2
        store.close()

    def test_removals_travel_in_manifest(self, tmp_path, layout):
        engine, store, _first = opened(tmp_path, layout)
        engine.remove_document("docs", 2)
        store.checkpoint(engine)
        entry = store.manifest["collections"]["docs"]
        assert 2 in entry["removed_docs"]
        restored = store.load_engine()
        assert 2 not in restored.collection("docs")._documents
        store.close()

    def test_mass_removal_triggers_rebatch(self, tmp_path, layout):
        texts = [f"document number {i}" for i in range(200)]
        engine, store, _first = opened(tmp_path, layout, texts, SegmentConfig())
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
