"""Merge policy, merge protocol, and the background scheduler."""

from __future__ import annotations

import random
import threading

import pytest

from repro.irs.engine import IRSEngine
from repro.irs.segments import (
    MergeScheduler,
    SegmentConfig,
    SegmentManager,
    select_candidates,
)
from repro.irs.view import UnionIndexView
from repro.sync import ReadWriteLock

WORDS = ["www", "nii", "telnet", "database", "retrieval"] + [
    f"w{i}" for i in range(15)
]


def manager_with_segments(sizes, config=None, seed=0):
    """A manager holding one sealed segment per entry in ``sizes``."""
    config = config or SegmentConfig(tier_fanout=3)
    manager = SegmentManager("merge-test", config)
    view = UnionIndexView(manager)
    rng = random.Random(seed)
    doc_id = 1
    for size in sizes:
        for _ in range(size):
            manager.add_document(doc_id, rng.choices(WORDS, k=rng.randint(2, 8)))
            doc_id += 1
        manager.seal()
    return manager, view


class TestSelectCandidates:
    def test_empty_manager_has_no_candidates(self):
        manager, _ = manager_with_segments([])
        assert select_candidates(manager) == []

    def test_partial_tier_is_left_alone(self):
        manager, _ = manager_with_segments([4, 4])
        assert select_candidates(manager) == []

    def test_full_tier_is_selected(self):
        manager, _ = manager_with_segments([4, 4, 4])
        candidates = select_candidates(manager)
        assert candidates == manager.sealed_segments()

    def test_smallest_full_tier_wins(self):
        # Tier 1 (live 3..8 docs at fanout 3) is full; the big segment is not.
        manager, _ = manager_with_segments([40, 4, 4, 4])
        candidates = select_candidates(manager)
        assert len(candidates) == 3
        assert all(s.live_document_count == 4 for s in candidates)

    def test_merge_width_is_capped(self):
        config = SegmentConfig(tier_fanout=2, max_merge_segments=2)
        manager, _ = manager_with_segments([4, 4, 4], config=config)
        assert len(select_candidates(manager)) == 2

    def test_tombstone_heavy_segment_selected_alone(self):
        manager, _ = manager_with_segments([8, 8])
        victim_segment = manager.sealed_segments()[0]
        for doc_id in sorted(victim_segment.forward)[:2]:  # ratio hits 0.25
            manager.remove_document(doc_id)
        candidates = select_candidates(manager)
        assert candidates == [victim_segment]

    def test_light_tombstones_do_not_trigger(self):
        manager, _ = manager_with_segments([10, 10])
        manager.remove_document(sorted(manager.sealed_segments()[0].forward)[0])
        assert select_candidates(manager) == []


class TestMergeProtocol:
    def test_only_one_merge_at_a_time(self):
        manager, _ = manager_with_segments([4, 4, 4])
        plan = manager.begin_merge(manager.sealed_segments())
        assert plan is not None
        assert manager.begin_merge(manager.sealed_segments()) is None
        manager.abort_merge(plan)
        assert manager.begin_merge(manager.sealed_segments()) is not None

    def test_commit_replays_post_snapshot_tombstones(self):
        manager, view = manager_with_segments([4, 4, 4])
        before = set(view.document_ids())
        plan = manager.begin_merge(manager.sealed_segments())
        # A foreground delete lands *after* the snapshot, mid-build.
        victim = sorted(manager.sealed_segments()[0].forward)[0]
        manager.remove_document(victim)
        merged = plan.build()
        assert merged.is_live(victim), "built from the pre-delete snapshot"
        manager.commit_merge(plan, merged)
        assert len(manager.sealed_segments()) == 1
        assert set(view.document_ids()) == before - {victim}
        assert not view.has_document(victim)

    def test_commit_purges_snapshot_tombstones(self):
        manager, view = manager_with_segments([4, 4, 4])
        victim = sorted(manager.sealed_segments()[1].forward)[0]
        manager.remove_document(victim)
        assert manager.tombstone_count() == 1
        plan = manager.begin_merge(manager.sealed_segments())
        manager.commit_merge(plan, plan.build())
        assert manager.tombstone_count() == 0
        assert manager.tombstones_purged == 1
        assert not view.has_document(victim)

    def test_merge_preserves_epoch_and_bumps_structure(self):
        manager, _ = manager_with_segments([4, 4, 4])
        epoch, structure = manager.epoch, manager.structure
        plan = manager.begin_merge(manager.sealed_segments())
        manager.commit_merge(plan, plan.build())
        assert manager.epoch == epoch
        assert manager.structure == structure + 1

    def test_abort_leaves_segments_untouched(self):
        manager, view = manager_with_segments([4, 4, 4])
        before = view.to_payload()
        plan = manager.begin_merge(manager.sealed_segments())
        manager.abort_merge(plan)
        assert view.to_payload() == before
        assert len(manager.sealed_segments()) == 3


class TestEngineCompaction:
    def _engine(self, documents=10):
        engine = IRSEngine(
            segment_config=SegmentConfig(seal_document_count=3, tier_fanout=2)
        )
        engine.create_collection("docs")
        rng = random.Random(7)
        for _ in range(documents):
            engine.index_document("docs", " ".join(rng.choices(WORDS, k=6)))
        return engine

    def test_compact_collection_folds_everything(self):
        engine = self._engine()
        collection = engine.collection("docs")
        assert len(collection.segments.sealed_segments()) >= 3
        assert engine.compact_collection("docs") is True
        assert len(collection.segments.sealed_segments()) == 1
        assert engine.compact_collection("docs") is False  # already clean

    def test_compaction_keeps_statistics_cache_warm(self):
        engine = self._engine()
        collection = engine.collection("docs")
        stats = collection.stats
        norm = stats.document_norm(1)
        assert stats._doc_norms, "norm memo populated"
        engine.compact_collection("docs")
        assert stats._doc_norms, "content-preserving merge must not invalidate"
        assert stats.document_norm(1) == norm

    def test_query_results_survive_compaction(self):
        engine = self._engine(documents=14)
        before = {
            model: engine.query("docs", "www telnet", model=model).values
            for model in ("vector", "inquery", "boolean")
        }
        engine.compact_collection("docs")
        for model, expected in before.items():
            after = engine.query("docs", "www telnet", model=model).values
            assert set(after) == set(expected)
            for doc_id, value in after.items():
                assert value == pytest.approx(expected[doc_id], abs=1e-9)


class TestMergeScheduler:
    def _engine(self):
        engine = IRSEngine(
            segment_config=SegmentConfig(
                seal_document_count=3, tier_fanout=2, merge_interval_seconds=0.01
            )
        )
        engine.create_collection("docs")
        rng = random.Random(11)
        for _ in range(13):
            engine.index_document("docs", " ".join(rng.choices(WORDS, k=6)))
        return engine

    def test_run_once_merges_within_budget(self):
        engine = self._engine()
        collection = engine.collection("docs")
        before_segments = len(collection.segments.sealed_segments())
        before_docs = set(collection.index.document_ids())
        scheduler = MergeScheduler(engine, interval=0.01)
        merges = scheduler.run_once()
        assert merges >= 1
        assert len(collection.segments.sealed_segments()) < before_segments
        assert set(collection.index.document_ids()) == before_docs

    def test_run_once_skips_collections_with_nothing_sealed(self):
        engine = IRSEngine(segment_config=SegmentConfig(tier_fanout=2))
        engine.create_collection("unsealed")
        engine.index_document("unsealed", "www nii")
        engine.index_document("unsealed", "telnet gopher")
        manager = engine.collection("unsealed").segments
        assert MergeScheduler(engine, interval=0.01).run_once() == 0
        assert not manager.sealed_segments()
        assert manager.memtable.document_count == 2

    def test_engine_owns_one_scheduler(self):
        engine = self._engine()
        scheduler = engine.start_merge_scheduler(interval=0.01)
        try:
            assert scheduler.running
            assert engine.start_merge_scheduler() is scheduler
        finally:
            engine.stop_merge_scheduler()
        assert not scheduler.running

    def test_background_thread_converges(self):
        engine = self._engine()
        collection = engine.collection("docs")
        scheduler = engine.start_merge_scheduler(interval=0.005)
        try:
            done = threading.Event()

            def probe():
                import time

                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if not select_candidates(collection.segments):
                        done.set()
                        return
                    time.sleep(0.01)

            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
            assert done.is_set(), "scheduler never drained the merge candidates"
        finally:
            engine.stop_merge_scheduler()


class TestCooperativeWriteAcquire:
    def test_nowait_fails_under_reader(self):
        lock = ReadWriteLock()
        with lock.reading():
            assert lock.acquire_write_nowait() is False
        assert lock.acquire_write_nowait() is True
        lock.release_write()

    def test_try_writing_context(self):
        lock = ReadWriteLock()
        with lock.try_writing() as acquired:
            assert acquired is True
        with lock.reading():
            with lock.try_writing() as acquired:
                assert acquired is False

    def test_nowait_is_reentrant_for_the_writer(self):
        lock = ReadWriteLock()
        assert lock.acquire_write_nowait() is True
        assert lock.acquire_write_nowait() is True
        lock.release_write()
        lock.release_write()
        # fully released: a reader can get in again
        with lock.reading():
            pass
