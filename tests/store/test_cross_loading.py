"""What older builds wrote opens with identical documents and rankings.

``fixtures/`` holds files written by the previous writers, before the
JSON write path and the monolithic layout were removed.  They are kept
small and are never regenerated from this code:

* ``irs_index/`` — a bare-engine JSON directory holding a monolithic
  (``mono``), a segmented (``seg``) and a 2-shard (``shard``) collection;
* ``irs.store`` — a single-file store over two checkpoints whose manifest
  has a ``flat`` entry (``mono``) next to a segmented and a sharded one;
* ``irs_index_expected.json`` / ``store_expected.json`` — the documents
  and the rankings (3 models, 5 queries) the writer's own engine gave.

The JSON directory is read-only now: it is imported once into the store.
A ``flat`` store entry reads as one sealed segment and is rewritten as
segments by the first checkpoint after its collection is touched.
"""

import json
import os
import shutil

import pytest

from repro.core.system import DocumentSystem
from repro.irs.persistence import load_engine as load_json_engine
from repro.sgml.mmf import build_document, mmf_dtd
from repro.store import SingleFileStore

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

MODELS = ("inquery", "vector", "boolean")


def expected(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return json.load(fh)


def assert_matches(engine, want):
    assert engine.collection_names() == sorted(want["collections"])
    for name, collection_want in want["collections"].items():
        collection = engine.collection(name)
        assert {
            str(doc.doc_id): {
                "text": doc.text, "metadata": doc.metadata, "revision": doc.revision,
            }
            for doc in collection.documents()
        } == collection_want["documents"], name
        for model in want["models"]:
            for query in want["queries"]:
                ranked = engine.query(name, query, model=model).ranked()
                assert [[doc_id, value] for doc_id, value in ranked] == (
                    collection_want["rankings"][model][query]
                ), (name, model, query)


def store_copy(tmp_path):
    path = str(tmp_path / "irs.store")
    shutil.copyfile(os.path.join(FIXTURES, "irs.store"), path)
    return path


@pytest.mark.parametrize("shard_count", [0, 2])
def test_json_directory_imports_into_store(tmp_path, shard_count):
    want = expected("irs_index_expected.json")
    imported = load_json_engine(os.path.join(FIXTURES, "irs_index"))
    assert_matches(imported, want)
    store = SingleFileStore(str(tmp_path / "irs.store"))
    store.checkpoint(imported)
    store.close()
    again = SingleFileStore(str(tmp_path / "irs.store"))
    assert_matches(again.load_engine(shard_count=shard_count), want)
    again.close()


#: The fixture collection written in each older layout.
FIXTURE_COLLECTION = {"flat": "mono", "segmented": "seg", "sharded": "shard"}


def only(want, name):
    """``want`` narrowed to the one collection ``name``."""
    return {**want, "collections": {name: want["collections"][name]}}


def layouts(store):
    return {name: entry["layout"] for name, entry in store.manifest["collections"].items()}


@pytest.mark.parametrize("layout", sorted(FIXTURE_COLLECTION))
class TestEngineLevel:
    def shard_count(self, layout):
        return 2 if layout == "sharded" else 0

    def test_json_to_store(self, tmp_path, layout):
        """Each older JSON layout imports on its own and is written to the
        store as segments."""
        name = FIXTURE_COLLECTION[layout]
        json_dir = tmp_path / "irs_index"
        json_dir.mkdir()
        (json_dir / "collections.json").write_text(
            json.dumps({"collections": [name]}), encoding="utf-8"
        )
        source = os.path.join(FIXTURES, "irs_index", f"collection_{name}")
        if layout == "sharded":
            shutil.copytree(source, str(json_dir / f"collection_{name}"))
        else:
            shutil.copyfile(source + ".json", str(json_dir / f"collection_{name}.json"))
        want = only(expected("irs_index_expected.json"), name)

        with SingleFileStore(str(tmp_path / "irs.store")) as store:
            store.checkpoint(load_json_engine(str(json_dir)))
            assert layouts(store) == {name: "segmented"}
        with SingleFileStore(str(tmp_path / "irs.store")) as again:
            assert_matches(again.load_engine(shard_count=self.shard_count(layout)), want)

    def test_full_cycle_preserves_payloads(self, tmp_path, layout):
        """An older store entry of each layout, checkpointed in full into a
        fresh store file and from there into another, reads back identically
        and loses nothing on the way."""
        name = FIXTURE_COLLECTION[layout]
        shard_count = self.shard_count(layout)
        want = only(expected("store_expected.json"), name)
        source = SingleFileStore(store_copy(tmp_path))
        engine = source.load_engine(shard_count=shard_count)
        for other in set(FIXTURE_COLLECTION.values()) - {name}:
            engine.drop_collection(other)
        payloads = []
        for step in ("first", "second"):
            path = str(tmp_path / f"{step}.store")
            with SingleFileStore(path) as store:
                store.checkpoint(engine)
                assert layouts(store) == {name: "sharded" if shard_count else "segmented"}
            with SingleFileStore(path) as store:
                engine = store.load_engine(shard_count=shard_count, lazy=False)
                assert_matches(engine, want)
                payloads.append(engine.collection(name).index.to_payload())
        source.close()
        assert payloads[0] == payloads[1]


class TestOlderStoreFile:
    def test_manifest_has_a_flat_entry(self, tmp_path):
        store = SingleFileStore(store_copy(tmp_path))
        layouts = {
            name: entry["layout"]
            for name, entry in store.manifest["collections"].items()
        }
        assert layouts == {"mono": "flat", "seg": "segmented", "shard": "sharded"}
        store.close()

    @pytest.mark.parametrize("shard_count", [0, 1, 2, 3])
    @pytest.mark.parametrize("lazy", [True, False])
    def test_opens_with_identical_results(self, tmp_path, lazy, shard_count):
        """Every shard count: the 2-shard entry then loads flattened (0),
        into one scatter-eligible manager (1), as stored (2) and
        re-partitioned (3)."""
        store = SingleFileStore(store_copy(tmp_path))
        engine = store.load_engine(shard_count=shard_count, lazy=lazy)
        assert_matches(engine, expected("store_expected.json"))
        store.close()

    def test_touched_flat_entry_is_rewritten_as_segments(self, tmp_path):
        path = store_copy(tmp_path)
        store = SingleFileStore(path)
        before = store.manifest["collections"]
        engine = store.load_engine()
        engine.collection("mono")
        store.checkpoint(engine)
        after = store.manifest["collections"]
        assert after["mono"]["layout"] == "segmented"
        assert "index" not in after["mono"]
        # Untouched entries are carried forward verbatim.
        assert after["seg"] == before["seg"]
        assert after["shard"] == before["shard"]
        store.pack()
        store.close()
        again = SingleFileStore(path)
        assert_matches(again.load_engine(), expected("store_expected.json"))
        again.close()


def _populate(system, dtd):
    for i in range(5):
        system.add_document(
            build_document(f"T{i}", [f"archie gopher text {i}", "www access"]),
            dtd=dtd,
        )
    collection = system.create_collection("paras", "ACCESS p FROM p IN PARA")
    system.index_collection(collection)
    return collection


def _search_all(system, query="archie access"):
    collection = next(iter(system.db.instances_of("COLLECTION")))
    return {
        model: system.search(collection, query, model=model).to_dict()
        for model in MODELS
    }


class TestSystemLevel:
    def test_legacy_json_directory_migrates_to_store(self, tmp_path):
        """A system directory without ``irs.store`` — older builds kept JSON
        dumps under ``irs_index/`` — reindexes from its WAL-durable
        database on open and checkpoints the result into a new store."""
        path = str(tmp_path / "sys")
        system = DocumentSystem(directory=path)
        dtd = mmf_dtd()
        system.register_dtd(dtd)
        _populate(system, dtd)
        expected_results = _search_all(system)
        system.close()
        os.remove(os.path.join(path, "irs.store"))
        shutil.copytree(
            os.path.join(FIXTURES, "irs_index"), os.path.join(path, "irs_index")
        )

        migrated = DocumentSystem(directory=path)
        assert _search_all(migrated) == expected_results
        migrated.close()
        assert os.path.exists(os.path.join(path, "irs.store"))

        reopened = DocumentSystem(directory=path)
        assert _search_all(reopened) == expected_results
        reopened.close()

    def test_fresh_directory_defaults_to_store(self, tmp_path):
        system = DocumentSystem(directory=str(tmp_path / "fresh"))
        assert system.store is not None
        system.close()
        assert os.path.exists(str(tmp_path / "fresh" / "irs.store"))

    def test_memory_system_has_no_store(self):
        system = DocumentSystem()
        assert system.store is None
        system.close()

    def test_unknown_storage_mode_rejected(self, tmp_path):
        for storage in ("parquet", "json", "auto"):
            with pytest.raises(ValueError):
                DocumentSystem(directory=str(tmp_path / "x"), storage=storage)
