"""Collection statistics: Zipf/Heaps diagnostics."""

import pytest

from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.inverted_index import InvertedIndex
from repro.irs.statistics import (
    heaps_beta,
    rank_frequency,
    statistics_for_collection,
    zipf_slope,
)


class TestRankFrequency:
    def test_sorted_descending(self):
        index = InvertedIndex()
        index.add_document(1, ["a", "a", "a", "b", "b", "c"])
        pairs = rank_frequency(index)
        assert pairs == [(1, 3), (2, 2), (3, 1)]

    def test_empty_index(self):
        assert rank_frequency(InvertedIndex()) == []
        assert zipf_slope(InvertedIndex()) == 0.0


class TestZipf:
    def test_zipfian_text_has_negative_slope_near_one(self):
        # Construct a rank-r frequency ~ 100/r distribution explicitly.
        index = InvertedIndex()
        doc = []
        for rank in range(1, 30):
            doc.extend([f"term{rank}"] * max(1, int(100 / rank)))
        index.add_document(1, doc)
        slope = zipf_slope(index)
        assert -1.3 < slope < -0.7

    def test_uniform_vocabulary_near_zero(self):
        index = InvertedIndex()
        index.add_document(1, [f"t{i}" for i in range(50)])
        assert abs(zipf_slope(index)) < 0.1


class TestHeaps:
    def test_sublinear_growth(self):
        # Repeating vocabulary: V grows sublinearly with tokens.
        docs = [[f"w{i % 30}" for i in range(start, start + 40)] for start in range(0, 400, 40)]
        beta = heaps_beta(docs)
        assert 0.0 <= beta < 0.8

    def test_all_unique_tokens_beta_near_one(self):
        docs = [[f"unique{start}_{i}" for i in range(40)] for start in range(10)]
        beta = heaps_beta(docs)
        assert beta > 0.9

    def test_degenerate_input(self):
        assert heaps_beta([]) == 0.0
        assert heaps_beta([["only"]]) == 0.0


class TestCorpusRealism:
    def test_synthetic_corpus_is_text_like(self, corpus_system):
        from repro.core.collection import _create_collection, index_objects

        collection_obj = _create_collection(
            corpus_system.db, "stats", "ACCESS p FROM p IN PARA"
        )
        index_objects(collection_obj)
        collection = corpus_system.engine.collection("stats")
        stats = statistics_for_collection(collection)
        assert stats.documents == len(corpus_system.db.instances_of("PARA"))
        assert stats.zipf_slope < -0.3   # skewed, not uniform
        assert 0.1 < stats.heaps_beta < 0.95
        assert 0 < stats.type_token_ratio < 1

    def test_statistics_shape(self):
        collection = IRSCollection("s", Analyzer(stemming=False, stopwords=set()))
        collection.add_document("a a b c")
        collection.add_document("a d e")
        stats = statistics_for_collection(collection)
        assert stats.documents == 2
        assert stats.tokens == 7
        assert stats.vocabulary == 5
        assert stats.average_document_length == pytest.approx(3.5)
