"""Segment subsystem units: lifecycle, tombstones, view parity, payloads.

The load-bearing property is *mirror equivalence*: a
:class:`MergedIndexView` over any segment stack must expose exactly the
statistics and postings a monolithic :class:`InvertedIndex` holding the
same live documents does — integer statistics exactly, postings lists
identically.  Scoring equivalence on the big corpus lives in
``test_segmented_equivalence.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.irs.collection import IRSCollection
from repro.irs.inverted_index import InvertedIndex
from repro.irs.segments import (
    MergedIndexView,
    SegmentConfig,
    SegmentedStatistics,
    SegmentManager,
)

VOCABULARY = ["www", "nii", "telnet", "database", "retrieval"] + [
    f"w{i}" for i in range(20)
]


def small_config(**overrides) -> SegmentConfig:
    defaults = dict(seal_document_count=4, tier_fanout=3)
    defaults.update(overrides)
    return SegmentConfig(**defaults)


def random_terms(rng: random.Random, low: int = 2, high: int = 12):
    return rng.choices(VOCABULARY, k=rng.randint(low, high))


def build_pair(seed: int, documents: int, config: SegmentConfig):
    """The same documents in a segment stack and a monolithic index."""
    rng = random.Random(seed)
    manager = SegmentManager(f"seg{seed}", config)
    view = MergedIndexView(manager)
    mono = InvertedIndex()
    for doc_id in range(1, documents + 1):
        terms = random_terms(rng)
        view.add_document(doc_id, terms)
        mono.add_document(doc_id, terms)
    return manager, view, mono


def assert_mirror(view: MergedIndexView, mono: InvertedIndex, context: str = ""):
    """The view and the monolithic index must agree on the full read API."""
    assert view.document_count == mono.document_count, context
    assert view.token_count == mono.token_count, context
    assert view.posting_count == mono.posting_count, context
    assert view.term_count == mono.term_count, context
    assert view.document_ids() == mono.document_ids(), context
    assert view.average_document_length == pytest.approx(
        mono.average_document_length
    ), context
    assert sorted(view.terms()) == sorted(mono.terms()), context
    assert view.doc_lengths == mono.doc_lengths, context
    for term in sorted(set(list(mono.terms()) + VOCABULARY)):
        assert view.document_frequency(term) == mono.document_frequency(term), (
            f"{context}: df({term})"
        )
        assert view.collection_frequency(term) == mono.collection_frequency(term), (
            f"{context}: cf({term})"
        )
        got = [(p.doc_id, p.positions) for p in view.postings(term)]
        expected = [(p.doc_id, p.positions) for p in mono.postings(term)]
        assert got == expected, f"{context}: postings({term})"
    for doc_id in mono.document_ids():
        assert view.document_length(doc_id) == mono.document_length(doc_id)
        assert view.document_vector(doc_id) == mono.document_vector(doc_id)
        assert view.has_document(doc_id)


class TestSegmentLifecycle:
    def test_memtable_seals_on_document_threshold(self):
        manager, view, _ = build_pair(1, 10, small_config())
        # 10 docs, seal at 4: two sealed segments + 2 docs in the memtable.
        assert len(manager.sealed_segments()) == 2
        assert manager.memtable.document_count == 2
        assert manager.segment_count == 3
        assert manager.seals == 2

    def test_memtable_seals_on_token_threshold(self):
        config = SegmentConfig(seal_document_count=1000, seal_token_count=10)
        manager = SegmentManager("tok", config)
        view = MergedIndexView(manager)
        view.add_document(1, ["a"] * 12)
        assert len(manager.sealed_segments()) == 1
        assert manager.memtable.document_count == 0

    def test_seal_preserves_epoch_and_bumps_structure(self):
        manager, view, _ = build_pair(2, 3, small_config())
        epoch, structure = manager.epoch, manager.structure
        view.add_document(99, ["www", "nii", "www"])  # 4th doc: triggers seal
        assert manager.structure == structure + 1
        assert manager.epoch == epoch + 1  # the add itself, not the seal

    def test_duplicate_add_raises(self):
        _, view, _ = build_pair(3, 5, small_config())
        with pytest.raises(ValueError):
            view.add_document(2, ["www"])

    def test_remove_unknown_raises_keyerror(self):
        _, view, _ = build_pair(4, 3, small_config())
        with pytest.raises(KeyError):
            view.remove_document(77)

    def test_memtable_removal_is_physical(self):
        manager, view, _ = build_pair(5, 2, small_config())
        view.remove_document(2)
        assert manager.tombstone_count() == 0
        assert not view.has_document(2)

    def test_sealed_removal_is_tombstone(self):
        manager, view, _ = build_pair(6, 9, small_config())
        sealed_doc = next(iter(manager.sealed_segments()[0].forward))
        view.remove_document(sealed_doc)
        assert manager.tombstone_count() == 1
        assert not view.has_document(sealed_doc)
        assert view.document_vector(sealed_doc) == {}
        assert sealed_doc not in [p.doc_id for p in view.postings("www")]


class TestMirrorEquivalence:
    def test_plain_build_mirrors_monolith(self):
        _, view, mono = build_pair(7, 23, small_config())
        assert_mirror(view, mono)

    def test_mirrors_after_tombstones_and_reinserts(self):
        rng = random.Random(8)
        manager, view, mono = build_pair(8, 20, small_config())
        next_id = 21
        for step in range(40):
            live = sorted(view.doc_lengths)
            roll = rng.random()
            if roll < 0.4 and len(live) > 3:
                victim = rng.choice(live)
                view.remove_document(victim)
                mono.remove_document(victim)
            else:
                terms = random_terms(rng)
                view.add_document(next_id, terms)
                mono.add_document(next_id, terms)
                next_id += 1
            if step % 10 == 9:
                assert_mirror(view, mono, f"step {step}")
        assert_mirror(view, mono, "final")

    def test_mirrors_after_compact(self):
        rng = random.Random(9)
        manager, view, mono = build_pair(9, 18, small_config())
        for victim in rng.sample(range(1, 19), 6):
            view.remove_document(victim)
            mono.remove_document(victim)
        epoch = view.epoch
        assert manager.compact() is True
        assert len(manager.sealed_segments()) == 1
        assert manager.sealed_segments()[0].tombstones == set()
        assert view.epoch == epoch, "compaction must be content-preserving"
        assert_mirror(view, mono, "after compact")

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ops=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=30),
    )
    def test_random_op_sequences_mirror(self, seed, ops):
        rng = random.Random(seed)
        manager = SegmentManager("prop", small_config(seal_document_count=3))
        view = MergedIndexView(manager)
        mono = InvertedIndex()
        next_id = 1
        for op in ops:
            live = sorted(view.doc_lengths)
            if op == 0 or not live:
                terms = random_terms(rng, 1, 6)
                view.add_document(next_id, terms)
                mono.add_document(next_id, terms)
                next_id += 1
            elif op == 1:
                victim = rng.choice(live)
                view.remove_document(victim)
                mono.remove_document(victim)
            else:
                manager.compact()
        assert_mirror(view, mono)


class TestEpochSemantics:
    def test_batched_epoch_coalesces_bumps(self):
        manager, view, _ = build_pair(10, 5, small_config())
        before = view.epoch
        with manager.batched_epoch():
            view.add_document(50, ["www"])
            view.add_document(51, ["nii"])
            view.remove_document(50)
            assert view.epoch == before, "bumps deferred inside the batch"
        assert view.epoch == before + 1

    def test_empty_batch_does_not_bump(self):
        manager, view, _ = build_pair(11, 5, small_config())
        before = view.epoch
        with manager.batched_epoch():
            pass
        assert view.epoch == before

    def test_nested_batches_bump_once(self):
        manager, view, _ = build_pair(12, 5, small_config())
        before = view.epoch
        with manager.batched_epoch():
            view.add_document(60, ["www"])
            with manager.batched_epoch():
                view.add_document(61, ["nii"])
        assert view.epoch == before + 1

    def test_monolithic_index_batched_epoch(self):
        index = InvertedIndex()
        index.add_document(1, ["www", "nii"])
        before = index.epoch
        with index.batched_epoch():
            index.add_document(2, ["telnet"])
            index.remove_document(1)
            assert index.epoch == before
        assert index.epoch == before + 1
        with index.batched_epoch():
            pass
        assert index.epoch == before + 1


class TestTargetedRemoval:
    def test_remove_with_terms_equals_full_scan(self):
        full, targeted = InvertedIndex(), InvertedIndex()
        rng = random.Random(13)
        docs = {doc_id: random_terms(rng) for doc_id in range(1, 10)}
        for doc_id, terms in docs.items():
            full.add_document(doc_id, terms)
            targeted.add_document(doc_id, terms)
        for doc_id in (3, 7, 1):
            full.remove_document(doc_id)
            targeted.remove_document(doc_id, terms=docs[doc_id])
        assert full.to_payload() == targeted.to_payload()
        assert full.posting_count == targeted.posting_count
        assert full.token_count == targeted.token_count

    def test_remove_with_terms_rejects_unknown_doc(self):
        index = InvertedIndex()
        index.add_document(1, ["www"])
        with pytest.raises(KeyError):
            index.remove_document(2, terms=["www"])


class TestSegmentedStatistics:
    def test_norms_match_monolithic_sweep(self):
        config = small_config()
        manager, view, mono = build_pair(14, 15, config)
        for victim in (2, 9):
            view.remove_document(victim)
            mono.remove_document(victim)
        segmented = SegmentedStatistics(view, manager)
        from repro.irs.statistics import StatisticsCache

        monolithic = StatisticsCache(mono)
        for doc_id in mono.document_ids():
            assert segmented.document_norm(doc_id) == pytest.approx(
                monolithic.document_norm(doc_id), abs=1e-9
            )
        assert segmented.document_norm(999) == 0.0

    def test_norms_invalidate_on_epoch_change(self):
        manager, view, _ = build_pair(15, 6, small_config())
        stats = SegmentedStatistics(view, manager)
        first = stats.document_norm(1)
        view.add_document(100, ["www", "www", "nii"])
        second = stats.document_norm(1)
        # Same document, but the idf landscape changed with the new doc.
        assert first != second

    def test_collection_stats_cache_is_segmented(self):
        collection = IRSCollection("segcoll", segment_config=small_config())
        collection.add_document("www nii telnet")
        assert isinstance(collection.stats, SegmentedStatistics)
        assert collection.stats.index is collection.index


class TestPayloads:
    def _populated(self, seed=16, documents=11):
        collection = IRSCollection(f"pay{seed}", segment_config=small_config())
        rng = random.Random(seed)
        for _ in range(documents):
            collection.add_document(" ".join(random_terms(rng)))
        collection.remove_document(2)
        collection.remove_document(7)
        return collection

    def test_segmented_round_trip(self):
        collection = self._populated()
        payload = collection.to_payload()
        assert "segments" in payload and "index" not in payload
        restored = IRSCollection.from_payload(payload)
        assert restored.segments is not None
        assert restored.index.to_payload() == collection.index.to_payload()
        assert restored.add_document("next doc") == collection._next_doc_id
        assert len(restored) == len(collection) + 1

    def test_segmented_payload_flattens_into_monolithic(self):
        collection = self._populated(seed=17)
        payload = collection.to_payload()
        restored = IRSCollection.from_payload(
            payload, segment_config=SegmentConfig(enabled=False)
        )
        assert restored.segments is None
        assert isinstance(restored.index, InvertedIndex)
        assert restored.index.to_payload() == collection.index.to_payload()

    def test_legacy_payload_loads_into_segments(self):
        mono = IRSCollection("legacy")
        rng = random.Random(18)
        for _ in range(6):
            mono.add_document(" ".join(random_terms(rng)))
        payload = mono.to_payload()
        assert "index" in payload
        restored = IRSCollection.from_payload(payload, segment_config=SegmentConfig())
        assert restored.segments is not None
        assert len(restored.segments.sealed_segments()) == 1
        assert restored.index.to_payload() == mono.index.to_payload()

    def test_view_payload_drops_tombstoned_documents(self):
        collection = self._populated(seed=19)
        payload = collection.index.to_payload()
        assert "2" not in payload["doc_lengths"]
        for by_doc in payload["postings"].values():
            assert "2" not in by_doc


class TestSegmentInfo:
    def test_info_snapshot(self):
        manager, view, _ = build_pair(20, 9, small_config())
        sealed_doc = next(iter(manager.sealed_segments()[0].forward))
        view.remove_document(sealed_doc)
        info = manager.info()
        assert info["sealed"] == 2
        assert info["documents"] == 8
        assert info["tombstones"] == 1
        assert info["epoch"] == manager.epoch
