"""Segment subsystem units: lifecycle, tombstones, epochs, payloads.

The load-bearing property — the union view over any segment stack reads
exactly like a monolithic :class:`InvertedIndex` holding the same live
documents — is checked for every index implementer at once in
``test_index_contract.py``.  Scoring equivalence on the big corpus lives
in ``test_segmented_equivalence.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.irs.collection import IRSCollection
from repro.irs.inverted_index import InvertedIndex
from repro.irs.segments import SegmentConfig, SegmentManager
from repro.irs.statistics import ForwardNormStatistics, StatisticsCache
from repro.irs.view import UnionIndexView

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
    view = UnionIndexView(manager)
    mono = InvertedIndex()
    for doc_id in range(1, documents + 1):
        terms = random_terms(rng)
        manager.add_document(doc_id, terms)
        mono.add_document(doc_id, terms)
    return manager, view, mono


class TestSegmentLifecycle:
    def test_memtable_seals_on_document_threshold(self):
        manager, _, _ = build_pair(1, 10, small_config())
        # 10 docs, seal at 4: two sealed segments + 2 docs in the memtable.
        assert len(manager.sealed_segments()) == 2
        assert manager.memtable.document_count == 2
        assert manager.segment_count == 3
        assert manager.seals == 2

    def test_memtable_seals_on_token_threshold(self):
        config = SegmentConfig(seal_document_count=1000, seal_token_count=10)
        manager = SegmentManager("tok", config)
        manager.add_document(1, ["a"] * 12)
        assert len(manager.sealed_segments()) == 1
        assert manager.memtable.document_count == 0

    def test_seal_preserves_epoch_and_bumps_structure(self):
        manager, _, _ = build_pair(2, 3, small_config())
        epoch, structure = manager.epoch, manager.structure
        manager.add_document(99, ["www", "nii", "www"])  # 4th doc: triggers seal
        assert manager.structure == structure + 1
        assert manager.epoch == epoch + 1  # the add itself, not the seal

    def test_duplicate_add_raises(self):
        manager, _, _ = build_pair(3, 5, small_config())
        with pytest.raises(ValueError):
            manager.add_document(2, ["www"])

    def test_remove_unknown_raises_keyerror(self):
        manager, _, _ = build_pair(4, 3, small_config())
        with pytest.raises(KeyError):
            manager.remove_document(77)

    def test_memtable_removal_is_physical(self):
        manager, view, _ = build_pair(5, 2, small_config())
        manager.remove_document(2)
        assert manager.tombstone_count() == 0
        assert not view.has_document(2)

    def test_sealed_removal_is_tombstone(self):
        manager, view, _ = build_pair(6, 9, small_config())
        sealed_doc = next(iter(manager.sealed_segments()[0].forward))
        manager.remove_document(sealed_doc)
        assert manager.tombstone_count() == 1
        assert not view.has_document(sealed_doc)
        assert view.document_vector(sealed_doc) == {}
        assert sealed_doc not in [p.doc_id for p in view.postings("www")]


class TestEpochSemantics:
    def test_batched_epoch_coalesces_bumps(self):
        manager, view, _ = build_pair(10, 5, small_config())
        before = view.epoch
        with manager.batched_epoch():
            manager.add_document(50, ["www"])
            manager.add_document(51, ["nii"])
            manager.remove_document(50)
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
            manager.add_document(60, ["www"])
            with manager.batched_epoch():
                manager.add_document(61, ["nii"])
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


class TestForwardNormStatistics:
    def test_norms_match_monolithic_sweep(self):
        config = small_config()
        manager, view, mono = build_pair(14, 15, config)
        for victim in (2, 9):
            manager.remove_document(victim)
            mono.remove_document(victim)
        segmented = ForwardNormStatistics(view, manager.forward_vector)
        monolithic = StatisticsCache(mono)
        for doc_id in mono.document_ids():
            assert segmented.document_norm(doc_id) == pytest.approx(
                monolithic.document_norm(doc_id), abs=1e-9
            )
        assert segmented.document_norm(999) == 0.0

    def test_norms_invalidate_on_epoch_change(self):
        manager, view, _ = build_pair(15, 6, small_config())
        stats = ForwardNormStatistics(view, manager.forward_vector)
        first = stats.document_norm(1)
        manager.add_document(100, ["www", "www", "nii"])
        second = stats.document_norm(1)
        # Same document, but the idf landscape changed with the new doc.
        assert first != second

    def test_collection_stats_cache_is_segmented(self):
        collection = IRSCollection("segcoll", segment_config=small_config())
        collection.add_document("www nii telnet")
        assert isinstance(collection.stats, ForwardNormStatistics)
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


class TestSegmentInfo:
    def test_info_snapshot(self):
        manager, _, _ = build_pair(20, 9, small_config())
        sealed_doc = next(iter(manager.sealed_segments()[0].forward))
        manager.remove_document(sealed_doc)
        info = manager.info()
        assert info["sealed"] == 2
        assert info["documents"] == 8
        assert info["tombstones"] == 1
        assert info["epoch"] == manager.epoch
