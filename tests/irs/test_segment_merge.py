"""Merge policy, the fold, and the checkpoint's seal-and-fold step."""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.irs.engine import IRSEngine
from repro.irs.segments import (
    SealedSegment,
    SegmentConfig,
    SegmentManager,
    select_candidates,
)
from repro.irs.view import UnionIndexView
from tests.legacy import index_payload

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


class TestFold:
    def test_fold_purges_tombstones(self):
        manager, view = manager_with_segments([4, 4, 4])
        victim = sorted(manager.sealed_segments()[1].forward)[0]
        manager.remove_document(victim)
        assert manager.tombstone_count() == 1
        manager.fold(manager.sealed_segments())
        assert manager.tombstone_count() == 0
        assert manager.tombstones_purged == 1
        assert victim not in view.doc_lengths

    def test_fold_preserves_epoch_and_bumps_structure(self):
        manager, _ = manager_with_segments([4, 4, 4])
        epoch, structure = manager.epoch, manager.structure
        manager.fold(manager.sealed_segments())
        assert manager.epoch == epoch
        assert manager.structure == structure + 1

    def test_building_a_merge_leaves_segments_untouched(self):
        manager, view = manager_with_segments([4, 4, 4])
        before = index_payload(view)
        SealedSegment.merged(99, manager.sealed_segments())
        assert index_payload(view) == before
        assert len(manager.sealed_segments()) == 3

    def test_fold_records_its_counters_histogram_and_span(self):
        manager, _ = manager_with_segments([4, 4, 4])
        manager.remove_document(sorted(manager.sealed_segments()[0].forward)[0])
        with obs.instrumentation() as (tracer, metrics):
            manager.fold(manager.sealed_segments())
            snapshot = metrics.snapshot()
            spans = [
                span for root in tracer.finished_traces() for span in root.iter_spans()
                if span.name == "irs.segments.merge"
            ]
        counters = snapshot["counters"]
        assert counters["irs.segments.merges"] == 1
        assert counters["irs.segments.merged_inputs"] == 3
        assert counters["irs.segments.tombstones_purged"] == 1
        assert snapshot["histograms"]["irs.segments.merge_seconds"]["count"] == 1
        assert [span.attributes["inputs"] for span in spans] == [3]

    def test_fold_takes_the_position_of_its_first_input(self):
        manager, view = manager_with_segments([40, 4, 4, 4])
        big, *small = manager.sealed_segments()
        before = set(view.document_ids())
        merged = manager.fold(small)
        assert manager.sealed_segments() == [big, merged]
        assert set(view.document_ids()) == before


FOLD_SCRIPT = """
import hashlib
from repro.irs.segments import SealedSegment

words = ["www", "nii", "telnet", "café", "straße", "日本語"] + ["w%d" % i for i in range(40)]
first = SealedSegment.from_documents(1, [
    (d, [words[(d * k) % len(words)] for k in range(1, 6)]) for d in range(1, 30)
])
second = SealedSegment.from_documents(2, [
    (d, [words[(d + 3 * k) % len(words)] for k in range(1, 7)]) for d in range(30, 55)
])
first.tombstone(4)
folded = SealedSegment.merged(3, [first, second])
print(hashlib.sha256(folded.index.to_bytes()).hexdigest(), list(folded.forward[31]))
"""


class TestFoldBytes:
    def test_a_fold_writes_the_same_bytes_under_any_hash_seed(self):
        """Term order is each term's first appearance across the inputs,
        in input order, so ``PYTHONHASHSEED`` does not reach the record."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = {
            subprocess.run(
                [sys.executable, "-c", FOLD_SCRIPT],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2", "3")
        }
        assert len(outputs) == 1, outputs


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

    def test_indexing_alone_never_folds(self):
        engine = self._engine(documents=14)
        manager = engine.collection("docs").segments
        assert engine.merge_backlog() > 0
        assert manager.merges == 0
        engine.compact_collection("docs")
        assert manager.merges == 1
        assert engine.merge_backlog() == 0

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


class TestSealAndFold:
    def _manager(self):
        config = SegmentConfig(seal_document_count=3, tier_fanout=2)
        manager = SegmentManager("docs", config)
        view = UnionIndexView(manager)
        rng = random.Random(11)
        for doc_id in range(1, 14):
            manager.add_document(doc_id, rng.choices(WORDS, k=6))
        return manager, view

    def test_seal_and_fold_merges_and_keeps_documents(self):
        manager, view = self._manager()
        before_segments = len(manager.sealed_segments())
        before_docs = set(view.document_ids())
        assert manager.seal_and_fold() >= 1
        assert len(manager.sealed_segments()) < before_segments
        assert set(view.document_ids()) == before_docs

    def test_seal_and_fold_folds_a_full_tier_with_an_empty_memtable(self):
        manager, view = manager_with_segments([4, 4, 4])
        before = set(view.document_ids())
        assert manager.memtable.document_count == 0
        assert manager.seal_and_fold() == 1
        assert len(manager.sealed_segments()) == 1
        assert set(view.document_ids()) == before

    def test_seal_and_fold_keeps_the_epoch(self):
        manager, _ = self._manager()
        epoch = manager.epoch
        manager.seal_and_fold()
        assert manager.epoch == epoch

    @pytest.mark.parametrize("knob", ["tier_fanout", "max_merge_segments"])
    def test_a_fold_of_one_segment_per_tier_is_refused(self, knob):
        with pytest.raises(ValueError):
            SegmentConfig(**{knob: 1})

    def test_seal_and_fold_leaves_no_candidates_and_no_memtable(self):
        manager, _ = self._manager()
        assert manager.memtable.document_count
        manager.seal_and_fold()
        assert select_candidates(manager) == []
        assert manager.memtable.document_count == 0
        assert manager.seal_and_fold() == 0
