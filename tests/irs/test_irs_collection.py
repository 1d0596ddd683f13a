"""IRS collections: document management, metadata, sizes, reloading."""

import pytest

from repro.errors import DocumentMissingError
from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.engine import IRSEngine
from repro.irs.segments import SegmentConfig
from repro.store import SingleFileStore


@pytest.fixture
def collection():
    c = IRSCollection("paras", Analyzer(stemming=False))
    c.add_document("www browser here", {"oid": "OID1"})
    c.add_document("nii policy there", {"oid": "OID2"})
    return c


class TestDocuments:
    def test_add_assigns_increasing_ids(self, collection):
        doc_id = collection.add_document("more text")
        assert doc_id == 3
        assert len(collection) == 3

    def test_document_lookup(self, collection):
        doc = collection.document(1)
        assert doc.metadata["oid"] == "OID1"
        assert "www" in doc.text

    def test_missing_document_raises(self, collection):
        with pytest.raises(DocumentMissingError):
            collection.document(99)

    def test_remove(self, collection):
        collection.remove_document(1)
        with pytest.raises(DocumentMissingError):
            collection.document(1)
        assert collection.index.document_frequency("www") == 0

    def test_remove_missing_raises(self, collection):
        with pytest.raises(DocumentMissingError):
            collection.remove_document(99)

    def test_replace_reindexes(self, collection):
        collection.replace_document(1, "telnet protocol")
        assert collection.index.document_frequency("www") == 0
        assert collection.index.document_frequency("telnet") == 1
        assert collection.document(1).metadata["oid"] == "OID1"  # kept

    def test_ids_not_reused_after_removal(self, collection):
        collection.remove_document(2)
        assert collection.add_document("x") == 3


class TestMetadata:
    def test_metadata_copied_on_add(self, collection):
        metadata = {"oid": "OID9"}
        collection.add_document("t", metadata)
        metadata["oid"] = "changed"
        assert collection.document(3).metadata["oid"] == "OID9"


class TestSizes:
    def test_indexed_bytes_positive(self, collection):
        assert collection.indexed_bytes() > 0

    def test_indexed_bytes_grows_with_documents(self, collection):
        before = collection.indexed_bytes()
        collection.add_document("completely new words appear")
        assert collection.indexed_bytes() > before


class TestPayload:
    def test_round_trip(self, collection, tmp_path):
        """Checkpointed into the store and materialized from its payload."""
        engine = IRSEngine()
        engine._collections["paras"] = collection
        path = str(tmp_path / "irs.store")
        with SingleFileStore(path) as store:
            store.checkpoint(engine)
        with SingleFileStore(path) as store:
            restored = store.load_engine(analyzer=Analyzer(stemming=False)).collection("paras")
        assert len(restored) == len(collection)
        assert restored.document(1).text == collection.document(1).text
        assert restored.document(2).metadata == {"oid": "OID2"}
        assert restored.index.document_frequency("www") == 1
        # new additions continue the id sequence
        assert restored.add_document("next") == 3


class TestOneSegmentManager:
    """A collection is one segment manager named like it; the logical
    index is a read-only view over that manager's sources."""

    def test_manager_is_named_like_the_collection(self, collection):
        assert collection.segments.name == "paras"
        assert collection.scoring_sources() == collection.segments.scoring_sources()
        assert collection.index_version == collection.segments.index_version
        assert collection.document_count == collection.segments.document_count == 2

    def test_view_is_read_only(self, collection):
        # Documents enter through the collection; the view has no way around it.
        assert not hasattr(collection.index, "add_document")
        assert not hasattr(collection.index, "remove_document")

    def test_every_write_moves_the_epoch(self, collection):
        epochs = [collection.index.epoch]
        collection.add_document("fresh words")
        epochs.append(collection.index.epoch)
        collection.replace_document(1, "rewritten words")
        epochs.append(collection.index.epoch)
        collection.remove_document(2)
        epochs.append(collection.index.epoch)
        assert epochs == sorted(set(epochs))

    def test_engine_reports_one_manager_per_collection(self):
        engine = IRSEngine(segment_config=SegmentConfig(seal_document_count=2))
        for name in ("a", "b"):
            engine.create_collection(name)
            for text in ("www nii", "telnet www", "nii pages"):
                engine.index_document(name, text)
        info = engine.segment_info()
        assert sorted(info) == ["a", "b"]
        assert [info[name]["documents"] for name in ("a", "b")] == [3, 3]
        assert [info[name]["sealed"] for name in ("a", "b")] == [1, 1]
