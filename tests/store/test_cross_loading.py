"""What older builds wrote opens with identical documents and rankings.

``fixtures/`` holds files written by the previous writers, before the
JSON write path, the monolithic layout, the sharded layout and the JSON
segment record were removed.  They are kept small and are never
regenerated from this code:

* ``irs_index/`` — a bare-engine JSON directory holding a monolithic
  (``mono``), a segmented (``seg``) and a 2-shard (``shard``) collection;
* ``irs.store`` — a single-file store over two checkpoints whose manifest
  has a ``flat`` entry (``mono``) next to a segmented and a sharded one;
  its six sealed segments are JSON ``segment`` records;
* ``blocks.store`` — a store whose sealed segments are native ``blocks``
  records: two collections of eighteen documents over unicode terms,
  sealed every four documents, three removed and one revised, one with
  doc ids from 2**32 - 2 (8-byte doc-id columns), the other 1-byte ones;
* ``sharded_system/`` — a whole system directory (``db/`` and
  ``irs.store``), closed cleanly, whose ``paras`` collection is a 3-shard
  entry: sealed segments, tombstones, a revised document and memtables;
* ``wal_system/`` — a whole system directory written by the last build
  whose database checkpoint wrote ``db/snapshot.json``: four documents
  indexed and checkpointed, then a document added, a paragraph rewritten,
  one removed, a propagation and a buffered query that reached only
  ``db/wal.log``, closed without a checkpoint (its ``irs.store`` is a
  checkpoint behind the database);
* ``two_file_system/`` — a whole system directory written by the last
  build that kept the database in a file of its own, ``db/objects.store``
  (two object batches, one with deletions), beside ``irs.store``: four
  documents indexed and checkpointed; a document added, a paragraph
  rewritten, one removed and a propagation, checkpointed; then the same
  again and a buffered query that reached only ``db/wal.log``, closed
  without a checkpoint;
* ``*_expected.json`` — the documents and the rankings (3 models, 5
  queries) the writer's own engine gave; for ``sharded_system`` also its
  ``doc_map`` and how many records the writer's build appended at the
  first checkpoint after reopening the directory unsharded; for
  ``wal_system`` and ``two_file_system`` every object in the value
  encoding of the store, and the rankings by OID of the writer's build
  after reopening the directory.

The JSON directory is read-only now: it is imported once into the store,
and so are the database images in ``db/`` (``snapshot.json``,
``objects.store``).
Opening a store converts what older builds wrote (``repro.store.importer``,
swept byte by byte in ``test_importer.py``): a ``flat`` or ``sharded``
entry becomes ``segmented``, its segments loading in the collection's one
segment manager, and every JSON index record it references is written
once more as a native one.
"""

import copy
import json
import os
import shutil

import pytest

from repro.core.system import DocumentSystem
from repro.irs.collection import IRSCollection
from repro.irs.engine import IRSEngine
from repro.irs.postings import CompactIndex
from repro.store.importer import load_json_engine
from repro.irs.segments import SegmentConfig
from repro.oodb.store import ObjectStore
from repro.sgml.mmf import build_document, mmf_dtd
from repro.store import SingleFileStore, StoreFile, blocks
from tests.legacy import ShardedHistory, index_payload, write_sharded_store

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


def raw_manifest(path):
    """The last committed manifest of ``path``, read without importing."""
    with StoreFile(path) as file:
        return file.read_manifest()


def test_json_directory_imports_into_store(tmp_path):
    want = expected("irs_index_expected.json")
    imported = load_json_engine(os.path.join(FIXTURES, "irs_index"))
    assert_matches(imported, want)
    store = SingleFileStore(str(tmp_path / "irs.store"))
    store.checkpoint(imported)
    store.close()
    again = SingleFileStore(str(tmp_path / "irs.store"))
    assert_matches(again.load_engine(), want)
    again.close()


#: The files of ``irs_index/`` that hold index payloads an older build wrote.
JSON_INDEX_FILES = [
    "collection_mono.json",
    "collection_seg.json",
    "collection_shard/shard_0000.json",
    "collection_shard/shard_0001.json",
]


@pytest.mark.parametrize("relative", JSON_INDEX_FILES)
def test_index_payload_writes_each_stored_index_as_the_older_build_did(relative):
    """``tests.legacy.index_payload``, the JSON index writer the import
    tests build their inputs with, gives back exactly what an older build
    wrote for every index it read."""
    with open(os.path.join(FIXTURES, "irs_index", relative), encoding="utf-8") as fh:
        stored = json.load(fh)
    if "index" in stored:
        payloads = [stored["index"]]
    else:
        payloads = [segment["index"] for segment in stored["segments"]]
    assert payloads
    for payload in payloads:
        assert index_payload(CompactIndex.from_payload(payload)) == payload


#: The fixture collection written in each older layout.
FIXTURE_COLLECTION = {"flat": "mono", "segmented": "seg", "sharded": "shard"}


def only(want, name):
    """``want`` narrowed to the one collection ``name``."""
    return {**want, "collections": {name: want["collections"][name]}}


def layouts(store):
    return {name: entry["layout"] for name, entry in store.manifest["collections"].items()}


@pytest.mark.parametrize("layout", sorted(FIXTURE_COLLECTION))
class TestEngineLevel:
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
            assert_matches(again.load_engine(), want)

    def test_full_cycle_preserves_payloads(self, tmp_path, layout):
        """An older store entry of each layout, checkpointed in full into a
        fresh store file and from there into another, reads back identically
        and loses nothing on the way."""
        name = FIXTURE_COLLECTION[layout]
        want = only(expected("store_expected.json"), name)
        source = SingleFileStore(store_copy(tmp_path))
        engine = source.load_engine()
        for other in set(FIXTURE_COLLECTION.values()) - {name}:
            engine.drop_collection(other)
        payloads = []
        for step in ("first", "second"):
            path = str(tmp_path / f"{step}.store")
            with SingleFileStore(path) as store:
                store.checkpoint(engine)
                assert layouts(store) == {name: "segmented"}
            with SingleFileStore(path) as store:
                engine = store.load_engine(lazy=False)
                assert_matches(engine, want)
                payloads.append(index_payload(engine.collection(name).index))
        source.close()
        assert payloads[0] == payloads[1]


class TestOlderStoreFile:
    def test_manifest_has_a_flat_entry(self, tmp_path):
        layouts = {
            name: entry["layout"]
            for name, entry in raw_manifest(store_copy(tmp_path))["collections"].items()
        }
        assert layouts == {"mono": "flat", "seg": "segmented", "shard": "sharded"}

    @pytest.mark.parametrize("lazy", [True, False])
    def test_opens_with_identical_results(self, tmp_path, lazy):
        store = SingleFileStore(store_copy(tmp_path))
        engine = store.load_engine(lazy=lazy)
        assert_matches(engine, expected("store_expected.json"))
        store.close()

    @pytest.mark.parametrize("layout", ["flat", "sharded"])
    def test_entry_is_segmented_from_open(self, tmp_path, layout):
        """The import at open writes the entry as ``segmented``; touching
        its collection then rewrites nothing: the checkpoint appends only
        what it folds."""
        name = FIXTURE_COLLECTION[layout]
        path = store_copy(tmp_path)
        store = SingleFileStore(path)
        before = store.manifest["collections"]
        assert before[name]["layout"] == "segmented"
        assert not {"index", "shards", "shard_count"} & set(before[name])
        engine = store.load_engine()
        engine.collection(name)
        assert store.checkpoint(engine)["records_appended"] == folds(engine)
        after = store.manifest["collections"]
        assert after == before or folds(engine)
        for key in ("analyzer", "doc_batches", "document_count", "next_doc_id", "removed_docs"):
            assert after[name][key] == before[name][key], key
        store.pack()
        store.close()
        again = SingleFileStore(path)
        assert_matches(again.load_engine(), expected("store_expected.json"))
        again.close()


def segment_kinds(file, manifest):
    """Record kind of every sealed segment ``manifest`` references."""
    return [
        file.record_kind(segment["offset"])
        for entry in manifest["collections"].values()
        for part in entry.get("shards", [entry])
        for segment in part.get("segments", [])
    ]


def record_kinds(path):
    """Kind of every record in the file, live or dead, in file order."""
    with open(path, "rb") as fh:
        data = fh.read()
    kinds, offset = [], blocks.SUPER_SIZE
    while offset < len(data):
        if data[offset: offset + 8] == blocks.FOOTER_MAGIC:
            offset += blocks.FOOTER_SIZE
            continue
        length, _crc, kind = blocks.decode_record_header(data[offset:])
        kinds.append(kind)
        offset += blocks.RECORD_HEADER_SIZE + length
    return kinds


def touch_all(engine):
    for name in engine.collection_names():
        engine.collection(name)
    return engine


def folds(engine):
    """Folds run on ``engine``'s materialized collections.  A checkpoint
    after an import appends nothing else: it folds what the size-tiered
    policy picks among the imported segments and writes each output once."""
    return sum(c.segments.merges for c in engine._collections.values())


class TestOlderSegmentRecords:
    """``irs.store``'s six JSON segment records load as they always did:
    opening the store writes each once as a native record, and ``pack``
    reclaims the JSON."""

    def test_open_converts_then_pack_drops_json(self, tmp_path):
        want = expected("store_expected.json")
        path = store_copy(tmp_path)
        with StoreFile(path) as file:
            assert segment_kinds(file, file.read_manifest()) == [blocks.KIND_SEGMENT] * 6
        with SingleFileStore(path) as store:
            assert set(segment_kinds(store.file, store.manifest)) == {blocks.KIND_BLOCKS}
            engine = store.load_engine()
            assert_matches(engine, want)
            assert store.checkpoint(touch_all(engine))["records_appended"] == folds(engine)
            store.pack()
        assert not {blocks.KIND_SEGMENT, blocks.KIND_MEMTABLE, blocks.KIND_INDEX} & set(
            record_kinds(path)
        )
        with SingleFileStore(path) as again:
            assert set(segment_kinds(again.file, again.manifest)) == {blocks.KIND_BLOCKS}
            assert_matches(again.load_engine(), want)


BLOCKS_STORE = expected("blocks_store_expected.json")


class TestNativeStoreFile:
    """``blocks.store``: the native segment record of kind 6, with 1-byte
    and 8-byte doc-id columns, opens with the writer's documents and
    rankings."""

    def test_segments_are_native_records_of_both_widths(self, tmp_path):
        path = str(tmp_path / "blocks.store")
        shutil.copyfile(os.path.join(FIXTURES, "blocks.store"), path)
        with SingleFileStore(path) as store:
            # Byte 8 of the payload: the width of its doc-id column.
            widths = {
                name: {
                    store.file.read_record(s["offset"], s["length"], blocks.KIND_BLOCKS)[8]
                    for s in entry["segments"]
                }
                for name, entry in store.manifest["collections"].items()
            }
            assert set(segment_kinds(store.file, store.manifest)) == {blocks.KIND_BLOCKS}
        assert widths == {"narrow": {1}, "wide": {8}}

    @pytest.mark.parametrize("lazy", [True, False])
    def test_opens_with_identical_results(self, tmp_path, lazy):
        path = str(tmp_path / "blocks.store")
        shutil.copyfile(os.path.join(FIXTURES, "blocks.store"), path)
        with SingleFileStore(path) as store:
            engine = store.load_engine(lazy=lazy)
            assert_matches(engine, BLOCKS_STORE)
            # Native segments keep their records; each JSON memtable was
            # written once more at open, as a segment.
            assert store.checkpoint(touch_all(engine))["records_appended"] == folds(engine)


SHARDED_SYSTEM = expected("sharded_system_expected.json")
#: Records the writer's build appended at the first checkpoint after it
#: reopened ``sharded_system`` unsharded, with ``paras`` touched or not.
WRITER_RECORDS = SHARDED_SYSTEM["writer_reopen_checkpoint_records"]


def system_copy(tmp_path):
    path = str(tmp_path / "sys")
    shutil.copytree(os.path.join(FIXTURES, "sharded_system"), path)
    return path


def doc_map(system):
    (collection,) = system.db.instances_of("COLLECTION")
    return {key: list(ids) for key, ids in collection.get("doc_map").items()}


def assert_paras_match(engine):
    assert_matches(engine, {**SHARDED_SYSTEM, "collections": {"paras": SHARDED_SYSTEM}})


class TestOlderSystemDirectory:
    """A cleanly closed directory whose ``paras`` collection a build with
    hash shards stored as a 3-shard entry: it opens without a reindex."""

    @pytest.mark.parametrize("lazy", [True, False])
    def test_opens_with_identical_doc_map_and_rankings(self, tmp_path, lazy):
        system = DocumentSystem(directory=system_copy(tmp_path))
        try:
            assert system.engine.lazy_collection_names() == ["paras"]
            engine = system.engine if lazy else system.store.load_engine(lazy=False)
            assert engine.is_lazy("paras") is lazy
            assert doc_map(system) == SHARDED_SYSTEM["doc_map"]
            assert_paras_match(engine)
        finally:
            system.close()

    def test_entry_is_imported_as_segmented_then_packed(self, tmp_path):
        """Opening writes ``segmented``: the shards' JSON segment records
        and their memtables are written again, once each, as native
        segments — no more records than the writer's build appended at a
        touched checkpoint.  A checkpoint after a touch writes only what
        it folds, and
        ``pack`` reclaims what only the shard entry referenced."""
        path = system_copy(tmp_path)
        stale = raw_manifest(os.path.join(path, "irs.store"))["collections"]["paras"]
        assert stale["layout"] == "sharded" and len(stale["shards"]) == 3
        kept = {
            (segment["offset"], segment["length"])
            for part in stale["shards"]
            for segment in part["segments"]
        }
        memtables = [part["memtable"] for part in stale["shards"] if part["memtable"]]
        system = DocumentSystem(directory=path)
        try:
            store = system.store
            entry = store.manifest["collections"]["paras"]
            assert entry["layout"] == "segmented"
            assert not {"shards", "shard_count"} & set(entry)
            assert not kept & {(s["offset"], s["length"]) for s in entry["segments"]}
            assert len(entry["segments"]) == len(kept) + len(memtables)
            assert len(entry["segments"]) <= WRITER_RECORDS["touched"]
            system.engine.collection("paras")
            assert system.checkpoint()["records_appended"] == folds(system.engine)
            assert store.manifest["engine"] == {"default_model": "inquery"}
            dead = store.stats()["dead_bytes"]
            assert dead >= sum(length for _offset, length in [*kept, *memtables])
            assert system.pack()["reclaimed_bytes"] >= dead
            assert store.stats()["dead_bytes"] == 0
        finally:
            system.close()
        reopened = DocumentSystem(directory=path)
        try:
            assert doc_map(reopened) == SHARDED_SYSTEM["doc_map"]
            assert_paras_match(reopened.engine)
        finally:
            reopened.close()

    def test_untouched_entry_is_carried_forward(self, tmp_path):
        system = DocumentSystem(directory=system_copy(tmp_path))
        try:
            before = system.store.manifest["collections"]["paras"]
            assert system.checkpoint()["records_appended"] == WRITER_RECORDS["untouched"] == 0
            assert system.store.manifest["collections"]["paras"] == before
        finally:
            system.close()


WAL_SYSTEM = expected("wal_system_expected.json")


def encoded_objects(db):
    from repro.oodb.store import encode_value

    return {
        str(obj.oid.value): {
            "class": obj.class_name,
            "attributes": {k: encode_value(v) for k, v in db._store.read_all(obj.oid).items()},
        }
        for obj in db.iter_objects()
    }


def oid_rankings(system, want=WAL_SYSTEM):
    (collection,) = system.db.instances_of("COLLECTION")
    return {
        model: {
            query: [
                [str(oid), value]
                for oid, value in system.session.query(collection, query, model=model).to_dict().items()
            ]
            for query in want["queries"]
        }
        for model in want["models"]
    }


def open_database(directory):
    """The database half of a system directory alone (its image in
    ``irs.store``, its WAL in ``db/``), recovered without the engine."""
    from repro.oodb import Database

    store = SingleFileStore(os.path.join(directory, "irs.store"))
    return Database(directory=os.path.join(directory, "db"), store=store)


def without_the_reindex(objects):
    """``objects`` less what reindexing a collection moves: it renumbers
    the IRS documents, moves ``index_gen`` and empties the buffer."""
    objects = copy.deepcopy(objects)
    for entry in objects.values():
        if entry["class"] == "COLLECTION":
            attributes = entry["attributes"]
            del attributes["index_gen"], attributes["buffer"]
            attributes["doc_map"] = [key for key, _ids in attributes["doc_map"]["__dict__"]]
    return objects


class TestSnapshotDirectory:
    """``db/snapshot.json`` plus a non-empty WAL, as the last build that
    wrote snapshots left them: imported once, never written."""

    def test_opens_with_identical_objects_and_rankings(self, tmp_path):
        bare = str(tmp_path / "bare")
        shutil.copytree(os.path.join(FIXTURES, "wal_system"), bare)
        db = open_database(bare)
        assert encoded_objects(db) == WAL_SYSTEM["objects"]
        db._wal.close()  # no checkpoint
        db._storage.close()
        path = str(tmp_path / "sys")
        shutil.copytree(os.path.join(FIXTURES, "wal_system"), path)
        system = DocumentSystem(directory=path)
        try:
            # The store is a checkpoint behind: the collection is reindexed
            # from its doc_map's keys.
            assert without_the_reindex(encoded_objects(system.db)) == without_the_reindex(
                WAL_SYSTEM["objects"]
            )
            assert oid_rankings(system) == WAL_SYSTEM["rankings"]
        finally:
            system.close()

    @pytest.mark.parametrize("fixture", ["wal_system", "sharded_system"])
    def test_the_import_writes_the_snapshot_as_one_batch_and_the_snapshot_stays(
        self, tmp_path, fixture
    ):
        path = str(tmp_path / "sys")
        shutil.copytree(os.path.join(FIXTURES, fixture), path)
        snapshot = os.path.join(path, "db", "snapshot.json")
        with open(snapshot, "rb") as fh:
            written = fh.read()
        system = DocumentSystem(directory=path)
        objects, rankings = encoded_objects(system.db), oid_rankings(system)
        section = system.store.manifest["objects"]
        batch = system.store.file.read_record(*section["batches"][0], blocks.KIND_OBJECTS)
        assert len(batch.split(b"\n")) == len(json.loads(written)["objects"])
        system.checkpoint()
        system.close()
        reopened = DocumentSystem(directory=path)
        try:
            assert encoded_objects(reopened.db) == objects
            assert oid_rankings(reopened) == rankings
        finally:
            reopened.close()
        with open(snapshot, "rb") as fh:
            assert fh.read() == written


TWO_FILE_SYSTEM = expected("two_file_system_expected.json")


class TestTwoFileDirectory:
    """``irs.store`` beside ``db/objects.store`` (two object batches and a
    deleted list) and a ``db/wal.log`` holding committed records past the
    mark, as the last build that kept the database in its own file left
    them, closed without a checkpoint: the object file is imported into
    ``irs.store`` once and never written."""

    def copied(self, tmp_path, name="sys"):
        path = str(tmp_path / name)
        shutil.copytree(os.path.join(FIXTURES, "two_file_system"), path)
        return path

    def test_the_objects_are_equal(self, tmp_path):
        path = self.copied(tmp_path)
        older = os.path.join(path, "db", "objects.store")
        with open(older, "rb") as fh:
            written = fh.read()
        with StoreFile(older) as file:
            image = file.read_manifest()
        assert len(image["batches"]) == 2 and image["deleted"]
        db = open_database(path)
        try:
            assert len(db._wal) > 0  # committed records past the mark
            assert encoded_objects(db) == TWO_FILE_SYSTEM["objects"]
        finally:
            db._wal.close()  # no checkpoint
            db._storage.close()
        with open(older, "rb") as fh:
            assert fh.read() == written

    def test_the_rankings_are_identical(self, tmp_path):
        system = DocumentSystem(directory=self.copied(tmp_path))
        try:
            # The store is a checkpoint behind the WAL: the collection is
            # reindexed from its doc_map's keys.
            assert without_the_reindex(encoded_objects(system.db)) == without_the_reindex(
                TWO_FILE_SYSTEM["objects"]
            )
            assert oid_rankings(system, TWO_FILE_SYSTEM) == TWO_FILE_SYSTEM["rankings"]
        finally:
            system.close()

    def test_a_second_open_imports_nothing(self, tmp_path):
        path = self.copied(tmp_path)
        store_path = os.path.join(path, "irs.store")
        system = DocumentSystem(directory=path)
        objects, rankings = encoded_objects(system.db), oid_rankings(system, TWO_FILE_SYSTEM)
        system.close()
        size = os.path.getsize(store_path)
        with SingleFileStore(store_path) as store:
            store.load_objects(ObjectStore())
        assert os.path.getsize(store_path) == size
        reopened = DocumentSystem(directory=path)
        try:
            assert encoded_objects(reopened.db) == objects
            assert oid_rankings(reopened, TWO_FILE_SYSTEM) == rankings
        finally:
            reopened.close()


def _populate(system, dtd):
    for i in range(5):
        system.add_document(
            build_document(f"T{i}", [f"archie gopher text {i}", "www access"]),
            dtd=dtd,
        )
    collection = system.session.create_collection("paras", "ACCESS p FROM p IN PARA")
    system.session.index(collection)
    return collection


def _search_all(system, query="archie access"):
    collection = next(iter(system.db.instances_of("COLLECTION")))
    return {
        model: system.session.query(collection, query, model=model).to_dict()
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


WORDS = [
    "structured", "retrieval", "document", "elements", "oodbms",
    "coupling", "segments", "archie", "gopher", "telnet",
]
SHARD_QUERIES = [
    "structured retrieval",
    "#and(document elements)",
    "#or(gopher #not(retrieval))",
    "#wsum(2 retrieval 1 telnet)",
]


def populate(collection):
    """Forty documents, five removed and two revised, in one fixed order."""
    for i in range(40):
        words = [WORDS[(i * j + j) % len(WORDS)] for j in range(1, 2 + i % 7)]
        collection.add_document(" ".join(words), {"oid": f"OID{i}"})
    for doc_id in (3, 11, 12, 25, 40):
        collection.remove_document(doc_id)
    collection.replace_document(7, "telnet archie gopher retrieval")
    collection.replace_document(30, "structured structured document")
    return collection


def unpartitioned_want():
    """What ``populate`` gives in one collection: documents and rankings."""
    collection = populate(IRSCollection("docs"))
    engine = IRSEngine()
    engine.register_lazy_collection("docs", lambda: collection)
    rankings = {
        model: {
            query: [[d, v] for d, v in engine.query("docs", query, model=model).ranked()]
            for query in SHARD_QUERIES
        }
        for model in MODELS
    }
    documents = {
        str(doc.doc_id): {
            "text": doc.text, "metadata": doc.metadata, "revision": doc.revision,
        }
        for doc in collection.documents()
    }
    return {
        "models": list(MODELS),
        "queries": SHARD_QUERIES,
        "collections": {"docs": {"documents": documents, "rankings": rankings}},
    }


@pytest.mark.parametrize("shards", [1, 2, 3])
class TestShardedEntryOfAnyShardCount:
    """A ``sharded`` entry of one, two or three shards, each sealing every
    four documents — the shape older builds wrote, reproduced by
    ``tests.legacy`` — opens like the unpartitioned collection."""

    def written(self, tmp_path, shards):
        history = ShardedHistory(
            "docs", shards, segment_config=SegmentConfig(seal_document_count=4)
        )
        path = str(tmp_path / "irs.store")
        write_sharded_store(path, populate(history))
        return path

    @pytest.mark.parametrize("lazy", [True, False])
    def test_opens_with_identical_results(self, tmp_path, shards, lazy):
        path = self.written(tmp_path, shards)
        assert raw_manifest(path)["collections"]["docs"]["shard_count"] == shards
        with SingleFileStore(path) as store:
            assert_matches(store.load_engine(lazy=lazy), unpartitioned_want())

    def test_entry_is_imported_as_segmented_then_packed(self, tmp_path, shards):
        path = self.written(tmp_path, shards)
        stale = raw_manifest(path)["collections"]["docs"]
        kept = {
            (segment["offset"], segment["length"])
            for part in stale["shards"]
            for segment in part["segments"]
        }
        memtables = [part["memtable"] for part in stale["shards"] if part["memtable"]]
        with SingleFileStore(path) as store:
            entry = store.manifest["collections"]["docs"]
            assert entry["layout"] == "segmented"
            assert not {"shards", "shard_count"} & set(entry)
            # The shards' JSON segments and memtables were written again at
            # open, once each, as native segments.
            assert not kept & {(s["offset"], s["length"]) for s in entry["segments"]}
            assert len(entry["segments"]) == len(kept) + len(memtables)
            engine = store.load_engine()
            engine.collection("docs")
            assert store.checkpoint(engine)["records_appended"] == folds(engine)
            shard_records = sum(length for _offset, length in [*kept, *memtables])
            assert store.stats()["dead_bytes"] >= shard_records
            assert store.pack()["reclaimed_bytes"] >= shard_records
            assert store.stats()["dead_bytes"] == 0
        with SingleFileStore(path) as store:
            assert_matches(store.load_engine(), unpartitioned_want())

    def test_untouched_entry_is_carried_and_packed(self, tmp_path, shards):
        path = self.written(tmp_path, shards)
        with SingleFileStore(path) as store:
            before = store.manifest["collections"]["docs"]
            assert store.checkpoint(store.load_engine())["records_appended"] == 0
            assert store.manifest["collections"]["docs"] == before
            store.pack()
            packed = store.manifest["collections"]["docs"]
            assert packed["layout"] == "segmented"
            assert len(packed["segments"]) == len(before["segments"])
            assert store.stats()["dead_bytes"] == 0
        with SingleFileStore(path) as store:
            assert_matches(store.load_engine(lazy=False), unpartitioned_want())
