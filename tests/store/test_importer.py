"""The importer: opening a store converts what older builds wrote, once.

``repro.store.importer`` turns every ``flat`` and ``sharded`` manifest
entry into a ``segmented`` one, writes every JSON index record (SEGMENT,
MEMTABLE, INDEX) once more as a native kind 6 record, and makes a kind 6
memtable ref the entry's last segment, in one manifest commit at open.
The commit is crash-safe at every byte, every fixture an older build
wrote comes out native with the writer's rankings, a native store opens
without writing, and a checkpoint seals the memtable into a segment
record that is referenced again after a restart.  The database images
older builds kept in ``db/`` (``snapshot.json``, then ``objects.store``)
become the store's ``objects`` section the same way.

``fixtures/memtable.store`` was written by the last build that stored
memtables: two collections over unicode terms, sealed every four
documents, checkpointed twice.  ``mixed`` has two sealed segments (one
document tombstoned in each: one removed, one revised) and a kind 6
memtable of three documents (one removed from it before the second
checkpoint); ``fresh`` is a kind 6 memtable of three documents and no
segment.  ``memtable_store_expected.json`` holds the writer's documents
and rankings.
"""

import os
import shutil

import pytest

from repro.irs.engine import IRSEngine
from repro.irs.postings import CompactIndex
from repro.irs.segments import SegmentConfig
from repro.oodb.oid import OID
from repro.oodb.store import ObjectStore
from repro.store import SingleFileStore, StoreFile, blocks
from tests.legacy import ShardedHistory, write_sharded_store
from tests.store.test_cross_loading import (
    FIXTURES,
    assert_matches,
    expected,
    folds,
    populate,
    record_kinds,
    unpartitioned_want,
)

#: Each store file an older build wrote, with the rankings it gave.
STORES = {
    "irs.store": "store_expected.json",
    "blocks.store": "blocks_store_expected.json",
    "memtable.store": "memtable_store_expected.json",
}
SYSTEM_STORES = ["sharded_system/irs.store", "wal_system/irs.store"]


def copied(tmp_path, fixture):
    path = str(tmp_path / "irs.store")
    shutil.copyfile(os.path.join(FIXTURES, fixture), path)
    return path


def raw_manifest(path):
    """The last committed manifest, read without importing."""
    with StoreFile(path) as file:
        return file.read_manifest()


def assert_native(store):
    """Every entry is ``segmented``, names no memtable, and every index
    record it references verifies as kind 6."""
    for entry in store.manifest["collections"].values():
        assert entry["layout"] == "segmented"
        assert not {"index", "memtable", "shards", "shard_count"} & set(entry)
        for segment in entry["segments"]:
            store.file.read_record(segment["offset"], segment["length"], blocks.KIND_BLOCKS)


@pytest.mark.parametrize("fixture", sorted(STORES))
def test_crash_at_every_byte_of_the_import_commit(tmp_path, fixture):
    """A cut anywhere in the import commit recovers the older manifest,
    and opening that file imports it again, byte for byte as the first
    time; the cut at the end recovers the imported one."""
    want = expected(STORES[fixture])
    path = copied(tmp_path, fixture)
    start = os.path.getsize(path)
    before = raw_manifest(path)
    with SingleFileStore(path) as store:
        after = store.manifest
    end = os.path.getsize(path)
    assert end > start and after != before
    with open(path, "rb") as fh:
        imported = fh.read()
    work = str(tmp_path / "work.store")
    shutil.copyfile(path, work)
    reopened = str(tmp_path / "reopened.store")
    # A cut never moves the surviving prefix, so truncate one copy from
    # the end backwards; opening imports, so each reopen gets its own copy.
    for cut in range(end, start - 1, -1):
        os.truncate(work, cut)
        assert raw_manifest(work) == (after if cut == end else before), cut
        if cut in (end, end - 1, start) or cut % 101 == 0:
            with open(reopened, "wb") as fh:
                fh.write(imported[:cut])
            with SingleFileStore(reopened) as store:
                assert store.manifest == after, cut
                assert_matches(store.load_engine(), want)
            with open(reopened, "rb") as fh:
                assert fh.read() == imported, cut


@pytest.mark.parametrize("fixture", sorted(STORES) + SYSTEM_STORES)
def test_each_fixture_is_native_after_open(tmp_path, fixture):
    """The import keeps documents, removals, ``gens`` and ``engine``,
    appends only native segments (none when every record already is one)
    and one manifest, and a second open appends nothing."""
    path = copied(tmp_path, fixture)
    before = raw_manifest(path)
    kinds_before = len(record_kinds(path))
    with SingleFileStore(path) as store:
        assert_native(store)
        after = store.manifest
    appended = record_kinds(path)[kinds_before:]
    assert appended.count(blocks.KIND_MANIFEST) == 1
    assert set(appended) <= {blocks.KIND_BLOCKS, blocks.KIND_MANIFEST}
    assert after["checkpoint_id"] == before["checkpoint_id"] + 1
    assert (after["gens"], after["engine"]) == (before["gens"], before["engine"])
    for name, entry in before["collections"].items():
        for key in ("analyzer", "doc_batches", "document_count", "next_doc_id", "removed_docs"):
            assert after["collections"][name][key] == entry[key], (name, key)
    size = os.path.getsize(path)
    with SingleFileStore(path) as store:
        assert store.manifest == after
    assert os.path.getsize(path) == size


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_sharded_entry_imports_in_shard_order(tmp_path, shards):
    """A ``sharded`` entry of one, two or three shards becomes one
    ``segmented`` entry whose segments are, shard by shard, its sealed
    segments and then its memtable; it ranks like the unpartitioned
    collection, a checkpoint appends only what it folds, and a second
    open appends nothing."""
    history = populate(
        ShardedHistory("docs", shards, segment_config=SegmentConfig(seal_document_count=4))
    )
    path = str(tmp_path / "irs.store")
    write_sharded_store(path, history)
    order = []
    for part in history.parts:
        order += [sorted(s.index.doc_lengths) for s in part.sealed_segments()]
        if part.memtable.document_count:
            order.append(sorted(part.memtable.index.doc_lengths))
    with SingleFileStore(path) as store:
        assert_native(store)
        engine = store.load_engine(lazy=False)
        loaded = engine.collection("docs").segments.sealed_segments()
        assert [sorted(s.index.doc_lengths) for s in loaded] == order
        assert_matches(engine, unpartitioned_want())
        assert store.checkpoint(engine)["records_appended"] == folds(engine)
    size = os.path.getsize(path)
    with SingleFileStore(path) as store:
        assert_native(store)
    assert os.path.getsize(path) == size


def test_a_kind_6_memtable_becomes_the_last_segment(tmp_path):
    """A ``memtable`` ref of kind 6 is referenced as the entry's last
    segment, with no tombstones: the import appends only the manifest."""
    path = copied(tmp_path, "memtable.store")
    before = raw_manifest(path)["collections"]
    kinds_before = len(record_kinds(path))
    with SingleFileStore(path) as store:
        after = store.manifest["collections"]
        for name, entry in before.items():
            offset, length = entry["memtable"]
            assert after[name]["segments"] == entry["segments"] + [
                {
                    "offset": offset,
                    "length": length,
                    "tombstones": [],
                    "documents": after[name]["segments"][-1]["documents"],
                }
            ], name
        assert_matches(store.load_engine(), expected("memtable_store_expected.json"))
    assert record_kinds(path)[kinds_before:] == [blocks.KIND_MANIFEST]


def test_a_checkpoint_seals_the_memtable_into_a_referenced_record(tmp_path):
    """The checkpoint seals the memtable and writes the native record a
    seal writes; the manifest names no memtable, and after a restart the
    next checkpoint references that record.  The store writes no record
    kinds but documents, manifests and native index records."""
    engine = IRSEngine()
    engine.create_collection("docs")
    for text in ("unsealed memtable text", "another memtable document", "third one"):
        engine.index_document("docs", text)
    memtable = engine.collection("docs").segments.memtable
    path = str(tmp_path / "irs.store")
    with SingleFileStore(path) as store:
        store.checkpoint(engine)
        entry = store.manifest["collections"]["docs"]
        assert "memtable" not in entry
        (segment,) = entry["segments"]
        mem_ref = [segment["offset"], segment["length"]]
        assert store.file.read_record(*mem_ref, blocks.KIND_BLOCKS) == (
            CompactIndex.from_inverted(memtable.index).to_bytes()
        )
    assert engine.collection("docs").segments.memtable.document_count == 0
    with SingleFileStore(path) as store:
        restored = store.load_engine(lazy=False)
        stats = store.checkpoint(restored)
        entry = store.manifest["collections"]["docs"]
    assert stats["records_appended"] == 0
    assert [[s["offset"], s["length"]] for s in entry["segments"]] == [mem_ref]
    assert "memtable" not in entry
    assert set(record_kinds(path)) == {blocks.KIND_DOCS, blocks.KIND_MANIFEST, blocks.KIND_BLOCKS}


def table_state(table):
    """Every object of an ``ObjectStore``, attribute order included."""
    return {
        oid: (table.class_of(oid), list(table.read_all(oid).items()))
        for oid in sorted(table.all_oids())
    }


def opened_objects(path):
    """The objects ``path`` holds once open (importing), and its section."""
    table = ObjectStore()
    with SingleFileStore(path) as store:
        section = store.load_objects(table)
    return table_state(table), section


class TestDatabaseImages:
    """The database images older builds kept in ``db/`` beside
    ``irs.store`` become its ``objects`` section in one commit, once."""

    def test_a_snapshot_older_builds_wrote_imports(self, tmp_path):
        directory = tmp_path / "db"
        directory.mkdir()
        (directory / "snapshot.json").write_text(
            '{"oid_high_water": 3, "schema": [], "objects": ['
            '{"oid": 1, "class": "PARA", "attributes": {"content": "telnet"}}, '
            '{"oid": 2, "class": "COLLECTION", "attributes": '
            '{"doc_map": {"__dict__": [["OID1", [0]]]}}}]}',
            encoding="utf-8",
        )
        path = str(tmp_path / "irs.store")
        objects, section = opened_objects(path)
        assert {k: section[k] for k in ("oid_high_water", "schema", "deleted")} == {
            "oid_high_water": 3, "schema": [], "deleted": [],
        }
        assert len(section["batches"]) == 1
        assert objects == {
            OID(1): ("PARA", [("content", "telnet")]),
            OID(2): ("COLLECTION", [("doc_map", {"OID1": [0]})]),
        }
        size = os.path.getsize(path)
        assert opened_objects(path) == (objects, section)
        assert os.path.getsize(path) == size  # a second open imports nothing

    def test_crash_at_every_byte_of_the_object_file_import(self, tmp_path):
        """A cut anywhere in the import of ``db/objects.store`` recovers the
        manifest before it, and opening that file imports it again, to the
        same objects; the live batches are copied as they are."""
        system = str(tmp_path / "sys")
        shutil.copytree(os.path.join(FIXTURES, "two_file_system"), system)
        path, directory = os.path.join(system, "irs.store"), os.path.join(system, "db")
        start = os.path.getsize(path)
        before = raw_manifest(path)
        objects, section = opened_objects(path)
        after = raw_manifest(path)
        end = os.path.getsize(path)
        assert after == dict(before, checkpoint_id=before["checkpoint_id"] + 1,
                             prev=after["prev"], objects=section)
        with StoreFile(os.path.join(directory, "objects.store")) as older:
            image = older.read_manifest()
            with StoreFile(path) as file:
                assert [
                    file.read_record(offset, length, blocks.KIND_OBJECTS)
                    for offset, length in section["batches"]
                ] == [
                    older.read_record(offset, length, blocks.KIND_OBJECTS)
                    for offset, length in image["batches"]
                ]
        assert section == dict(image, batches=section["batches"])
        with open(path, "rb") as fh:
            imported = fh.read()
        work = str(tmp_path / "work.store")
        shutil.copyfile(path, work)
        for cut in range(end, start - 1, -1):
            os.truncate(work, cut)
            assert raw_manifest(work) == (after if cut == end else before), cut
            if cut in (end, end - 1, start) or cut % 97 == 0:
                reopened = os.path.join(system, "reopened.store")
                with open(reopened, "wb") as fh:
                    fh.write(imported[:cut])
                assert opened_objects(reopened) == (objects, section), cut
