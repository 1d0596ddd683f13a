"""Inverted index: postings, statistics, round trips."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.irs.inverted_index import InvertedIndex
from repro.irs.postings import CompactIndex
from repro.irs.segments.segment import MemtableSegment
from tests.legacy import index_payload


@pytest.fixture
def index():
    idx = InvertedIndex()
    idx.add_document(1, ["www", "browser", "www"])
    idx.add_document(2, ["nii", "policy"])
    idx.add_document(3, ["www", "nii"])
    return idx


class TestPostings:
    def test_tf_counts_occurrences(self, index):
        assert index.term_frequency("www", 1) == 2
        assert index.term_frequency("www", 2) == 0

    def test_positions_recorded(self, index):
        postings = index.postings("www")
        assert postings[0].doc_id == 1
        assert postings[0].positions == [0, 2]

    def test_postings_in_doc_id_order(self, index):
        assert [p.doc_id for p in index.postings("www")] == [1, 3]

    def test_absent_term_empty(self, index):
        assert index.postings("zzz") == []

    def test_duplicate_doc_id_rejected(self, index):
        with pytest.raises(ValueError):
            index.add_document(1, ["x"])


class TestStatistics:
    def test_document_count(self, index):
        assert index.document_count == 3

    def test_document_frequency(self, index):
        assert index.document_frequency("www") == 2
        assert index.document_frequency("policy") == 1
        assert index.document_frequency("zzz") == 0

    def test_collection_frequency(self, index):
        assert index.collection_frequency("www") == 3

    def test_lengths(self, index):
        assert index.document_length(1) == 3
        assert index.average_document_length == pytest.approx(7 / 3)

    def test_posting_and_token_counts(self, index):
        assert index.posting_count == 6
        assert index.token_count == 7

    def test_empty_index_statistics(self):
        empty = InvertedIndex()
        assert empty.average_document_length == 0.0
        assert empty.document_count == 0


class TestRemoval:
    def test_remove_document(self, index):
        index.remove_document(1, ["www", "browser", "www"])
        assert 1 not in index.doc_lengths
        assert index.document_frequency("browser") == 0
        assert index.document_frequency("www") == 1

    def test_remove_unknown_raises(self, index):
        with pytest.raises(KeyError):
            index.remove_document(99, ["www"])

    def test_empty_terms_pruned(self, index):
        index.remove_document(2, ["nii", "policy"])
        index.remove_document(3, ["www", "nii"])
        assert "nii" not in set(index.terms())


_doc_terms = st.lists(
    st.sampled_from(["www", "nii", "web", "policy", "browser"]), max_size=12
)


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(_doc_terms, min_size=1, max_size=8))
    def test_payload_round_trip(self, docs):
        """The older JSON index schema, read back as the importer reads it."""
        index = InvertedIndex()
        for doc_id, terms in enumerate(docs, start=1):
            index.add_document(doc_id, terms)
        restored = CompactIndex.from_payload(index_payload(index))
        assert restored.document_count == index.document_count
        assert restored.posting_count == index.posting_count
        assert restored.doc_lengths == index.doc_lengths
        for doc_id, terms in enumerate(docs, start=1):
            for term, tf in Counter(terms).items():
                assert restored.term_frequency(term, doc_id) == tf
                assert restored.positions(term, doc_id) == index.positions(term, doc_id)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_doc_terms, min_size=2, max_size=8))
    def test_remove_then_stats_consistent(self, docs):
        index = InvertedIndex()
        for doc_id, terms in enumerate(docs, start=1):
            index.add_document(doc_id, terms)
        index.remove_document(1, docs[0])
        assert index.document_count == len(docs) - 1
        assert 1 not in index.document_ids()
        for term in index.terms():
            assert index.document_frequency(term) >= 1


def per_token_reference(docs):
    """What one update per token builds: term -> doc -> positions, and cf."""
    postings, frequency = {}, {}
    for doc_id, terms in enumerate(docs, start=1):
        for position, term in enumerate(terms):
            postings.setdefault(term, {}).setdefault(doc_id, []).append(position)
            frequency[term] = frequency.get(term, 0) + 1
    return postings, frequency


_repetitive_docs = st.lists(
    st.lists(st.sampled_from(["www", "nii", "web"]), max_size=16), min_size=1, max_size=8
)


class TestGroupedAdd:
    @settings(max_examples=50, deadline=None)
    @given(_repetitive_docs)
    def test_matches_per_token_updates(self, docs):
        index = InvertedIndex()
        for doc_id, terms in enumerate(docs, start=1):
            grouped = index.add_document(doc_id, terms)
            assert list(grouped) == list(dict.fromkeys(terms))
        postings, frequency = per_token_reference(docs)
        assert list(index.terms()) == list(postings)
        for term, by_doc in postings.items():
            assert [(p.doc_id, p.positions) for p in index.postings(term)] == sorted(
                by_doc.items()
            )
            assert index.collection_frequency(term) == frequency[term]
        assert index.posting_count == sum(len(by_doc) for by_doc in postings.values())
        assert index.token_count == sum(len(terms) for terms in docs)

    def test_later_add_drops_cached_sorted_list(self, index):
        before = index.postings("www")
        index.add_document(4, ["www", "www", "nii"])
        after = index.postings("www")
        assert after is not before
        assert [(p.doc_id, p.positions) for p in after] == [(1, [0, 2]), (3, [0]), (4, [0, 1])]
        assert index.postings("browser") is index.postings("browser")

    @settings(max_examples=30, deadline=None)
    @given(_repetitive_docs)
    def test_memtable_forward_vector_counts_terms(self, docs):
        memtable = MemtableSegment(0)
        for doc_id, terms in enumerate(docs, start=1):
            memtable.add_document(doc_id, terms)
            assert memtable.forward[doc_id] == Counter(terms)
