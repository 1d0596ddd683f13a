"""The checkpoint's upkeep step: seal the memtable, then fold.

``SingleFileStore.checkpoint`` runs ``SegmentManager.seal_and_fold``
under each materialized collection's write lock before it writes the
collection's entry, so one manifest references the folded segment,
drops its inputs and never names a memtable.  A crash anywhere in such a
checkpoint reopens to the state before it or the state after it, and
both rank like a fresh rebuild of the surviving documents.
"""

import os
import random
import shutil

import pytest

from repro.irs.engine import IRSEngine
from repro.irs.models import MODELS
from repro.irs.queries import parse_irs_query
from repro.irs.segments import SegmentConfig, select_candidates
from repro.obs.health import build_health
from repro.store import SingleFileStore, StoreFile
from tests.irs.test_segmented_equivalence import assert_same_ranking, fresh_rebuild

WORDS = ["structured", "document", "retrieval", "telnet", "coupling", "sgml"] + [
    f"w{i}" for i in range(12)
]
QUERIES = (
    "structured retrieval",
    "#and(document telnet)",
    "#or(coupling #not(retrieval))",
    "#wsum(2 retrieval 1 telnet)",
)
CONFIG = SegmentConfig(seal_document_count=4, tier_fanout=3)


def add(engine, rng, name, count):
    for _ in range(count):
        engine.index_document(name, " ".join(rng.choices(WORDS, k=rng.randint(3, 9))))


def rankings(engine):
    return {
        name: {
            model: {query: engine.query(name, query, model=model).ranked() for query in QUERIES}
            for model in sorted(MODELS)
        }
        for name in engine.collection_names()
    }


def assert_ranks_like_a_fresh_rebuild(engine):
    for name in engine.collection_names():
        collection = engine.collection(name)
        rebuilt = fresh_rebuild(collection)
        for model_name in sorted(MODELS):
            model = MODELS[model_name]()
            for query in QUERIES:
                tree = parse_irs_query(query, default_operator=model.default_operator)
                assert_same_ranking(
                    model.score(collection, tree),
                    model.score(rebuilt, tree),
                    f"{name} / {model_name} / {query}",
                )


def reopened(path):
    """Documents, segment stack and rankings of the store at ``path``."""
    with SingleFileStore(path) as store:
        engine = store.load_engine(lazy=False)
    documents = {
        name: {
            doc.doc_id: (doc.text, doc.revision)
            for doc in engine.collection(name).documents()
        }
        for name in engine.collection_names()
    }
    stack = {
        name: [
            (sorted(segment.index.doc_lengths), sorted(segment.tombstones))
            for segment in engine.collection(name).segments.sealed_segments()
        ]
        for name in engine.collection_names()
    }
    return engine, (documents, stack, rankings(engine))


def test_crash_at_every_byte_of_a_checkpoint_that_seals_and_folds(tmp_path):
    rng = random.Random(38)
    engine = IRSEngine(segment_config=CONFIG)
    engine.create_collection("docs")
    engine.create_collection("quiet")
    add(engine, rng, "docs", 6)
    add(engine, rng, "quiet", 3)
    path = str(tmp_path / "irs.store")
    store = SingleFileStore(path)
    store.checkpoint(engine)
    start = os.path.getsize(path)
    # Two more sealed segments of four fill the tier with the two the
    # first checkpoint wrote; three documents stay in the memtable, and
    # two removals leave tombstones for the fold to purge.
    add(engine, rng, "docs", 11)
    engine.remove_document("docs", 2)
    engine.remove_document("docs", 9)
    manager = engine.collection("docs").segments
    assert manager.memtable.document_count and select_candidates(manager)
    merges = manager.merges
    store.checkpoint(engine)
    assert manager.merges > merges, "the checkpoint folds"
    assert manager.memtable.document_count == 0, "the checkpoint seals"
    store.close()
    end = os.path.getsize(path)
    with StoreFile(path) as file:
        manifest_after = file.read_manifest()
    engine_after, after = reopened(path)
    before_path = str(tmp_path / "before.store")
    shutil.copyfile(path, before_path)
    os.truncate(before_path, start)
    with StoreFile(before_path) as file:
        manifest_before = file.read_manifest()
    engine_before, before = reopened(before_path)
    assert before != after
    assert after[1]["docs"] != before[1]["docs"]
    assert_ranks_like_a_fresh_rebuild(engine_before)
    assert_ranks_like_a_fresh_rebuild(engine_after)
    assert rankings(engine_after) == rankings(engine)
    # A cut never moves the surviving prefix (and a native store opens
    # without writing), so one copy is truncated from the end backwards.
    work = str(tmp_path / "work.store")
    shutil.copyfile(path, work)
    for cut in range(end, start - 1, -1):
        os.truncate(work, cut)
        with StoreFile(work) as file:
            assert file.read_manifest() == (
                manifest_after if cut == end else manifest_before
            ), cut
        assert reopened(work)[1] == (after if cut == end else before), cut


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_after_a_checkpoint_nothing_is_left_to_fold(tmp_path, seed):
    """Whatever the writes between checkpoints, a checkpoint leaves no
    materialized collection with a memtable or a fold candidate, and its
    manifest names no memtable; reopened, the store ranks as before."""
    rng = random.Random(seed)
    engine = IRSEngine(segment_config=CONFIG)
    for name in ("a", "b"):
        engine.create_collection(name)
    path = str(tmp_path / "irs.store")
    with SingleFileStore(path) as store:
        for _round in range(6):
            for name in ("a", "b"):
                add(engine, rng, name, rng.randint(0, 12))
                live = sorted(doc.doc_id for doc in engine.collection(name).documents())
                for doc_id in rng.sample(live, min(len(live), rng.randint(0, 3))):
                    engine.remove_document(name, doc_id)
            store.checkpoint(engine)
            for name in ("a", "b"):
                manager = engine.collection(name).segments
                assert manager.memtable.document_count == 0, name
                assert select_candidates(manager) == [], name
            for entry in store.manifest["collections"].values():
                assert "memtable" not in entry
        want = rankings(engine)
    with SingleFileStore(path) as store:
        assert rankings(store.load_engine()) == want


def test_health_reports_the_backlog_the_next_checkpoint_folds(tmp_path):
    rng = random.Random(5)
    engine = IRSEngine(segment_config=CONFIG)
    engine.create_collection("docs")
    add(engine, rng, "docs", 13)
    merge = build_health(engine)["merge"]
    assert set(merge) == {"backlog", "segments"}
    assert merge["backlog"] == 3
    with SingleFileStore(str(tmp_path / "irs.store")) as store:
        store.checkpoint(engine)
    merge = build_health(engine)["merge"]
    assert merge["backlog"] == 0
    assert merge["segments"] == engine.total_segments() == 2
