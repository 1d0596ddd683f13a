"""Segment subsystem units: lifecycle, tombstones, epochs, norms, payloads.

The load-bearing property — the union view over any segment stack reads
exactly like a freshly built :class:`InvertedIndex` holding the same live
documents — is checked for every index implementer at once in
``test_index_contract.py``.  Scoring equivalence on the big corpus lives
in ``test_segmented_equivalence.py``.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.irs.collection import IRSCollection
from repro.irs.inverted_index import InvertedIndex
from repro.irs.segments import SegmentConfig, SegmentManager
from repro.irs.statistics import StatisticsCache
from repro.irs.view import UnionIndexView
from repro.store.importer import load_json_engine
from tests.legacy import index_payload

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
    """The same documents in a segment stack and a fresh reference index."""
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
        assert 2 not in view.doc_lengths

    def test_sealed_removal_is_tombstone(self):
        manager, view, _ = build_pair(6, 9, small_config())
        sealed_doc = next(iter(manager.sealed_segments()[0].forward))
        manager.remove_document(sealed_doc)
        assert manager.tombstone_count() == 1
        assert sealed_doc not in view.doc_lengths
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


class TestTargetedRemoval:
    def test_remove_with_terms_rejects_unknown_doc(self):
        index = InvertedIndex()
        index.add_document(1, ["www"])
        with pytest.raises(KeyError):
            index.remove_document(2, terms=["www"])


def vector_of(index: InvertedIndex, doc_id: int) -> dict:
    """``{term: tf}`` of one document of a from-scratch index."""
    tfs = {term: index.term_frequency(term, doc_id) for term in index.terms()}
    return {term: tf for term, tf in tfs.items() if tf}


def reference_norm(index: InvertedIndex, doc_id: int) -> float:
    """The TF-IDF norm, straight from a from-scratch index."""
    total = 0.0
    for term, tf in vector_of(index, doc_id).items():
        idf = math.log(1.0 + index.document_count / index.document_frequency(term))
        total += ((1.0 + math.log(tf)) * idf) ** 2
    return math.sqrt(total)


class TestPerDocumentNorms:
    def test_norms_match_a_fresh_index(self):
        config = small_config()
        manager, view, mono = build_pair(14, 15, config)
        for victim in (2, 9):
            manager.remove_document(victim)
            mono.remove_document(victim, list(vector_of(mono, victim)))
        stats = StatisticsCache(view, manager.forward_vector)
        for doc_id in mono.document_ids():
            assert stats.document_norm(doc_id) == pytest.approx(
                reference_norm(mono, doc_id), abs=1e-9
            )
        assert stats.document_norm(999) == 0.0

    def test_norms_invalidate_on_epoch_change(self):
        manager, view, _ = build_pair(15, 6, small_config())
        stats = StatisticsCache(view, manager.forward_vector)
        first = stats.document_norm(1)
        manager.add_document(100, ["www", "www", "nii"])
        second = stats.document_norm(1)
        # Same document, but the idf landscape changed with the new doc.
        assert first != second

    def test_collection_stats_cache_reads_the_union_view(self):
        collection = IRSCollection("segcoll", segment_config=small_config())
        collection.add_document("www nii telnet")
        assert isinstance(collection.stats, StatisticsCache)
        assert collection.stats._index is collection.index


class TestPayloads:
    def test_segmented_round_trip(self, tmp_path):
        """Sealed segments, their tombstones and the memtable survive a
        checkpoint into the store; the checkpoint seals the memtable.  The
        policy here folds nothing, so the stack keeps its shape."""
        from repro.irs.engine import IRSEngine
        from repro.store import SingleFileStore

        engine = IRSEngine(
            segment_config=small_config(tier_fanout=8, tombstone_purge_ratio=0.5)
        )
        engine.create_collection("pay")
        rng = random.Random(16)
        for _ in range(11):
            engine.index_document("pay", " ".join(random_terms(rng)))
        engine.remove_document("pay", 2)
        engine.remove_document("pay", 7)
        collection = engine.collection("pay")
        sealed = list(collection.segments.sealed_segments())
        assert any(segment.tombstones for segment in sealed)
        assert collection.segments.memtable.document_count
        path = str(tmp_path / "irs.store")
        with SingleFileStore(path) as store:
            store.checkpoint(engine)
        with SingleFileStore(path) as store:
            restored = store.load_engine(lazy=False).collection("pay")
        restored_sealed = restored.segments.sealed_segments()
        assert [s.tombstones for s in restored_sealed[: len(sealed)]] == [
            s.tombstones for s in sealed
        ]
        assert len(restored_sealed) == len(sealed) + 1
        assert restored.segments.memtable.document_count == 0
        assert index_payload(restored.index) == index_payload(collection.index)
        assert restored.add_document("next doc") == collection._next_doc_id
        assert len(restored) == len(collection) + 1

    def test_legacy_payload_loads_into_segments(self, tmp_path):
        """A monolithic ``"index"`` dump — what older builds wrote under
        ``irs_index/`` — is imported as one sealed segment."""
        rng = random.Random(18)
        reference = InvertedIndex()
        documents = []
        collection = IRSCollection("legacy")
        for doc_id in range(1, 7):
            text = " ".join(random_terms(rng))
            documents.append({"doc_id": doc_id, "text": text, "metadata": {}})
            reference.add_document(doc_id, collection.analyzer.tokens(text))
        dump = {
            "name": "legacy",
            "next_doc_id": 7,
            "documents": documents,
            "index": index_payload(reference),
        }
        (tmp_path / "collections.json").write_text(json.dumps({"collections": ["legacy"]}))
        (tmp_path / "collection_legacy.json").write_text(json.dumps(dump))
        restored = load_json_engine(str(tmp_path)).collection("legacy")
        assert len(restored.segments.sealed_segments()) == 1
        assert index_payload(restored.index) == index_payload(reference)
        assert restored.add_document("next doc") == 7


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
