"""Legacy JSON index directories: the read-only import.

``tests/store/fixtures/irs_index`` was written by the old JSON writer: a
monolithic (``mono``), a segmented (``seg``) and a 2-shard (``shard``)
collection.  Rankings of the imported engine, and of the store it is
checkpointed into, are pinned in ``tests/store/test_cross_loading.py``.
"""

import json
import os
import shutil

from repro.store.importer import load_json_engine

FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "store", "fixtures"
)
DIRECTORY = os.path.join(FIXTURES, "irs_index")


def expected_documents():
    with open(os.path.join(FIXTURES, "irs_index_expected.json"), encoding="utf-8") as fh:
        want = json.load(fh)
    return {name: entry["documents"] for name, entry in want["collections"].items()}


class TestLoad:
    def test_collections_restored(self):
        restored = load_json_engine(DIRECTORY)
        assert restored.collection_names() == ["mono", "seg", "shard"]
        for name, documents in expected_documents().items():
            assert len(restored.collection(name)) == len(documents)

    def test_metadata_restored(self):
        restored = load_json_engine(DIRECTORY)
        for name, documents in expected_documents().items():
            collection = restored.collection(name)
            for doc_id, want in documents.items():
                document = collection.document(int(doc_id))
                assert document.metadata == want["metadata"]
                assert document.revision == want["revision"]

    def test_every_layout_loads_as_sealed_segments(self):
        restored = load_json_engine(DIRECTORY)
        for name in restored.collection_names():
            collection = restored.collection(name)
            manager = collection.segments
            assert manager.name == name
            assert manager.sealed_segments(), name
            assert manager.memtable.document_count == 0, name
            assert sorted(collection.index.document_ids()) == sorted(
                doc.doc_id for doc in collection.documents()
            ), name

    def test_additions_continue_the_id_sequence(self):
        restored = load_json_engine(DIRECTORY)
        for name in restored.collection_names():
            assert restored.index_document(name, "one more document") == 11

    def test_odd_collection_names_safe(self, tmp_path):
        """A name is stored under its file-safe spelling; the manifest keeps
        the name itself."""
        shutil.copyfile(
            os.path.join(DIRECTORY, "collection_seg.json"),
            str(tmp_path / "collection_my_coll_2_.json"),
        )
        (tmp_path / "collections.json").write_text(
            json.dumps({"collections": ["my coll/2!"]}), encoding="utf-8"
        )
        restored = load_json_engine(str(tmp_path))
        assert restored.has_collection("my coll/2!")
        assert len(restored.collection("my coll/2!")) == len(expected_documents()["seg"])

    def test_load_missing_directory_yields_empty_engine(self, tmp_path):
        restored = load_json_engine(str(tmp_path / "nothing"))
        assert restored.collection_names() == []
