"""Segmented scoring must be exactly equivalent to a fresh rebuild.

Satellite acceptance for the segmented index subsystem: a collection in an
arbitrary segmented state — live memtable, several sealed segments,
tombstones from deletes and re-indexing — must produce the *same rankings*
as an index rebuilt from scratch over the surviving documents, for the
vector-space, inference-network and boolean models, both before and after
background compaction — and so must the segments an older build's
three shards stored, opened as one manager.

Statistics combination is integer-exact (df/cf are sums of per-segment
counters), so scores agree to float noise only (≤ 1e-9).
"""

from __future__ import annotations

import random

import pytest

from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.inverted_index import InvertedIndex
from repro.irs.models import (
    BooleanModel,
    InferenceNetworkModel,
    VectorSpaceModel,
)
from repro.irs.queries import parse_irs_query
from repro.irs.segments import SegmentConfig
from tests.legacy import ShardedHistory, index_payload

TOLERANCE = 1e-9

QUERIES = [
    "www",
    "www nii",
    "#sum(www nii telnet)",
    "#and(www nii)",
    "#and(www #not(nii))",
    "#or(#and(www nii) #or(telnet database))",
    "#wsum(2 www 1 nii 0.5 telnet)",
    "#max(www nii telnet)",
    "#od2(information retrieval)",
    "#uw5(www telnet)",
    "#sum(#od2(www nii) telnet)",
]

MODELS = [
    pytest.param(VectorSpaceModel(), id="vector"),
    pytest.param(InferenceNetworkModel(), id="inquery"),
    pytest.param(BooleanModel(), id="boolean"),
]

VOCABULARY = [
    "www", "nii", "telnet", "database", "information", "retrieval",
] + [f"w{i}" for i in range(60)]


def _messy_history(collection, seed: int, documents: int):
    """``documents`` additions, then 150 removals and 100 replacements."""
    rng = random.Random(seed)
    for _ in range(documents):
        words = rng.choices(VOCABULARY, k=rng.randint(3, 30))
        collection.add_document(" ".join(words))
    for victim in rng.sample(range(1, documents + 1), 150):
        collection.remove_document(victim)
    survivors = sorted(collection._documents)
    for doc_id in rng.sample(survivors, 100):
        words = rng.choices(VOCABULARY, k=rng.randint(3, 30))
        collection.replace_document(doc_id, " ".join(words))
    return collection


def build_segmented_corpus(seed: int = 20260806, documents: int = 5000):
    """A 5k-doc segmented collection after a messy update history.

    Seal threshold of 700 forces multiple sealed segments plus a live
    memtable; the removes and replacements leave tombstones behind in the
    sealed ones.
    """
    config = SegmentConfig(seal_document_count=700)
    collection = IRSCollection("seg5k", Analyzer(), segment_config=config)
    return _messy_history(collection, seed, documents)


def build_imported_corpus(seed: int = 20260806, documents: int = 5000):
    """The same history as an older build wrote it across three shards,
    each sealing every 233 documents, then opened: one manager holding
    every shard's segments and memtable, tombstones included."""
    history = ShardedHistory(
        "seg5k", 3, Analyzer(), SegmentConfig(seal_document_count=233)
    )
    return _messy_history(history, seed, documents).load()


def fresh_rebuild(collection: IRSCollection) -> IRSCollection:
    """From-scratch reference over the surviving documents: one freshly
    built :class:`InvertedIndex`, loaded through ``from_payload``."""
    index = InvertedIndex()
    documents = []
    for doc_id in sorted(collection._documents):
        document = collection._documents[doc_id]
        documents.append(
            {"doc_id": doc_id, "text": document.text, "metadata": document.metadata}
        )
        index.add_document(doc_id, collection.analyzer.tokens(document.text))
    return IRSCollection.from_payload(
        {
            "name": collection.name + "-rebuild",
            "next_doc_id": collection._next_doc_id,
            "documents": documents,
            "segments": [{"index": index_payload(index), "tombstones": []}],
        },
        collection.analyzer,
    )


@pytest.fixture(scope="module")
def corpora():
    segmented = build_segmented_corpus()
    manager = segmented.segments
    assert len(manager.sealed_segments()) >= 5, "corpus must span several segments"
    assert manager.memtable.document_count > 0, "memtable must be live"
    assert manager.tombstone_count() > 0, "sealed tombstones required"
    return segmented, fresh_rebuild(segmented)


def assert_same_ranking(segmented_result, rebuilt_result, context):
    assert set(segmented_result) == set(rebuilt_result), (
        f"{context}: result sets diverge: "
        f"{sorted(set(segmented_result) ^ set(rebuilt_result))[:10]}"
    )
    for doc_id, value in segmented_result.items():
        assert value == pytest.approx(rebuilt_result[doc_id], abs=TOLERANCE), (
            f"{context}: doc {doc_id}"
        )
    ranking = sorted(segmented_result, key=lambda d: (-segmented_result[d], d))
    reference = sorted(rebuilt_result, key=lambda d: (-rebuilt_result[d], d))
    assert ranking == reference, f"{context}: ranking order diverges"


class TestSegmentedScoringEquivalence:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_monolithic_rebuild(self, corpora, model, query):
        segmented, rebuilt = corpora
        tree = parse_irs_query(query, default_operator=model.default_operator)
        assert_same_ranking(
            model.score(segmented, tree),
            model.score(rebuilt, tree),
            f"{model.name} / {query}",
        )

    def test_statistics_are_integer_exact(self, corpora):
        segmented, rebuilt = corpora
        view, mono = segmented.index, rebuilt.index
        assert view.document_count == mono.document_count
        assert view.token_count == mono.token_count
        for term in mono.terms():
            assert view.document_frequency(term) == mono.document_frequency(term)
            assert view.collection_frequency(term) == mono.collection_frequency(term)


class TestEquivalenceAfterMerge:
    build = staticmethod(build_segmented_corpus)

    @pytest.mark.parametrize("model", MODELS)
    def test_compaction_preserves_rankings(self, model):
        segmented = self.build(seed=42, documents=1200)
        rebuilt = fresh_rebuild(segmented)
        trees = [
            parse_irs_query(q, default_operator=model.default_operator)
            for q in QUERIES
        ]
        before = [model.score(segmented, tree) for tree in trees]
        epoch = segmented.index.epoch
        assert segmented.compact() is True
        assert segmented.index.epoch == epoch
        assert len(segmented.segments.sealed_segments()) == 1
        assert segmented.segments.tombstone_count() == 0
        for query, tree, prior in zip(QUERIES, trees, before):
            merged_result = model.score(segmented, tree)
            assert_same_ranking(
                merged_result, model.score(rebuilt, tree),
                f"{model.name} / {query} / post-merge",
            )
            assert_same_ranking(
                merged_result, prior, f"{model.name} / {query} / before-vs-after"
            )


class TestImportedShardsScoringEquivalence(TestSegmentedScoringEquivalence):
    """An older build's three shards, opened as one manager, rank like the
    fresh rebuild too."""

    @pytest.fixture(scope="class")
    def corpora(self):
        imported = build_imported_corpus()
        manager = imported.segments
        assert len(manager.sealed_segments()) >= 15, "every shard's segments"
        assert manager.tombstone_count() > 0, "the shards' tombstones"
        return imported, fresh_rebuild(imported)


class TestImportedShardsAfterMerge(TestEquivalenceAfterMerge):
    """Compaction folds the imported shards' segments into one."""

    build = staticmethod(build_imported_corpus)
