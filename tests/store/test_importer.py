"""The importer: opening a store converts what older builds wrote, once.

``repro.store.importer`` turns every ``flat`` and ``sharded`` manifest
entry into a ``segmented`` one and writes every JSON index record
(SEGMENT, MEMTABLE, INDEX) once more as a native kind 6 record, in one
manifest commit at open.  The commit is crash-safe at every byte, every
fixture an older build wrote comes out native with the writer's
rankings, a native store opens without writing, and the memtable record
this build writes is referenced again after a restart.
"""

import os
import shutil

import pytest

from repro.irs.engine import IRSEngine
from repro.irs.postings import CompactIndex
from repro.irs.segments import SegmentConfig
from repro.store import SingleFileStore, StoreFile, blocks
from tests.legacy import ShardedHistory, write_sharded_store
from tests.store.test_cross_loading import (
    FIXTURES,
    assert_matches,
    expected,
    populate,
    record_kinds,
    unpartitioned_want,
)

#: Each store file an older build wrote, with the rankings it gave.
STORES = {
    "irs.store": "store_expected.json",
    "blocks.store": "blocks_store_expected.json",
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
    """Every entry is ``segmented`` and every index record it references
    verifies as kind 6."""
    for entry in store.manifest["collections"].values():
        assert entry["layout"] == "segmented"
        assert not {"index", "shards", "shard_count"} & set(entry)
        refs = [[s["offset"], s["length"]] for s in entry["segments"]]
        for offset, length in refs + ([entry["memtable"]] if entry["memtable"] else []):
            store.file.read_record(offset, length, blocks.KIND_BLOCKS)


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
    appends only native segments and one manifest, and a second open
    appends nothing."""
    path = copied(tmp_path, fixture)
    before = raw_manifest(path)
    kinds_before = len(record_kinds(path))
    with SingleFileStore(path) as store:
        assert_native(store)
        after = store.manifest
    assert set(record_kinds(path)[kinds_before:]) == {blocks.KIND_BLOCKS, blocks.KIND_MANIFEST}
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
    collection, and a second open appends nothing."""
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
        assert store.checkpoint(engine)["records_appended"] == 0
    size = os.path.getsize(path)
    with SingleFileStore(path) as store:
        assert_native(store)
    assert os.path.getsize(path) == size


def test_a_restarted_memtable_is_referenced_not_rewritten(tmp_path):
    """The checkpoint writes the memtable as the native record a seal
    would; after a restart it loads as the last sealed segment and the
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
        mem_ref = store.manifest["collections"]["docs"]["memtable"]
        assert store.file.read_record(*mem_ref, blocks.KIND_BLOCKS) == (
            CompactIndex.from_inverted(memtable.index).to_bytes()
        )
    with SingleFileStore(path) as store:
        restored = store.load_engine(lazy=False)
        stats = store.checkpoint(restored)
        entry = store.manifest["collections"]["docs"]
    assert stats["records_appended"] == 0
    assert [[s["offset"], s["length"]] for s in entry["segments"]] == [mem_ref]
    assert entry["memtable"] is None
    assert set(record_kinds(path)) == {blocks.KIND_DOCS, blocks.KIND_MANIFEST, blocks.KIND_BLOCKS}
