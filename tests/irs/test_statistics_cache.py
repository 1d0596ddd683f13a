"""Statistics cache: epoch invalidation under interleaved updates/queries.

The fast scoring path reads ``df``, ``avg_dl``, document norms, and
document-id sets through :class:`repro.irs.statistics.StatisticsCache`.
These tests interleave add/remove/replace with cached reads and assert the
cache never serves a value the index does not currently agree with.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.inverted_index import InvertedIndex
from repro.irs.postings import CompactIndex
from repro.irs.segments import SegmentManager
from repro.irs.statistics import StatisticsCache
from repro.irs.view import UnionIndexView
from tests.legacy import index_payload

VOCAB = ["www", "nii", "web", "policy", "browser", "telnet"]


def fresh_expected_norm(index, doc_id):
    n_docs = index.document_count
    total = 0.0
    for term, tf in index.document_vector(doc_id).items():
        idf = math.log(1.0 + n_docs / index.document_frequency(term))
        w = (1.0 + math.log(tf)) * idf
        total += w * w
    return math.sqrt(total)


class TestEpoch:
    def test_running_counters_match_recomputation(self):
        index = InvertedIndex()
        index.add_document(1, ["www", "www", "nii"])
        index.add_document(2, ["nii", "web"])
        assert index.token_count == 5
        assert index.posting_count == 4
        assert index.collection_frequency("www") == 2
        index.remove_document(1, ["www", "www", "nii"])
        assert index.token_count == 2
        assert index.posting_count == 2
        assert index.collection_frequency("www") == 0
        assert index.collection_frequency("nii") == 1

    def test_from_payload_rebuilds_counters(self):
        index = InvertedIndex()
        index.add_document(1, ["www", "www", "nii"])
        index.add_document(2, ["policy"])
        restored = CompactIndex.from_payload(index_payload(index))
        assert restored.token_count == index.token_count
        assert restored.posting_count == index.posting_count
        assert restored.collection_frequency("www") == 2

    def test_sorted_postings_stay_fresh_after_out_of_order_adds(self):
        index = InvertedIndex()
        index.add_document(5, ["www"])
        assert [p.doc_id for p in index.postings("www")] == [5]
        index.add_document(2, ["www"])  # earlier doc id after the cache filled
        assert [p.doc_id for p in index.postings("www")] == [2, 5]


class TestCacheInvalidation:
    def test_avg_dl_tracks_updates(self):
        collection = IRSCollection("c", Analyzer(stemming=False, stopwords=set()))
        cache = collection.stats
        collection.add_document("www nii")
        assert cache.average_document_length == pytest.approx(2.0)
        collection.add_document("www nii web policy")
        assert cache.average_document_length == pytest.approx(3.0)

    def test_df_and_doc_sets_track_removal(self):
        collection = IRSCollection("c", Analyzer(stemming=False, stopwords=set()))
        d1 = collection.add_document("www nii")
        collection.add_document("www web")
        assert collection.index.document_frequency("www") == 2
        assert collection.stats.doc_id_set("www") == {d1, d1 + 1}
        collection.remove_document(d1)
        assert collection.index.document_frequency("www") == 1
        assert collection.stats.doc_id_set("www") == {d1 + 1}
        assert collection.stats.doc_id_set("nii") == frozenset()

    def test_idf_recomputed_after_growth(self):
        collection = IRSCollection("c", Analyzer(stemming=False, stopwords=set()))
        collection.add_document("www")
        stale = collection.stats.idf("www")
        for _ in range(9):
            collection.add_document("filler words only")
        fresh = collection.stats.idf("www")
        assert fresh != stale
        assert fresh == pytest.approx(math.log(1.0 + 10 / 1))

    def test_norms_recomputed_after_replace(self):
        collection = IRSCollection("c", Analyzer(stemming=False, stopwords=set()))
        doc = collection.add_document("www www nii")
        before = collection.stats.document_norm(doc)
        collection.replace_document(doc, "policy")
        after = collection.stats.document_norm(doc)
        assert after != before
        assert after == pytest.approx(fresh_expected_norm(collection.index, doc))

    def test_loaded_collection_stats_follow_later_updates(self):
        """A collection materialized from a payload reads its statistics
        through its own union view: the loaded segment plus later adds."""
        analyzer = Analyzer(stemming=False, stopwords=set())
        loaded = InvertedIndex()
        loaded.add_document(1, ["www", "www", "nii"])
        restored = IRSCollection.from_payload(
            {
                "name": "c",
                "next_doc_id": 2,
                "documents": [{"doc_id": 1, "text": "www www nii", "metadata": {}}],
                "segments": [{"index": index_payload(loaded), "tombstones": []}],
            },
            analyzer,
        )
        assert restored.stats._index is restored.index
        assert restored.index.document_frequency("www") == 1
        before = restored.stats.document_norm(1)
        assert restored.add_document("www policy") == 2
        assert restored.index.document_frequency("www") == 2
        assert restored.stats.doc_id_set("www") == {1, 2}
        after = restored.stats.document_norm(1)
        assert after != before
        assert after == pytest.approx(fresh_expected_norm(restored.index, 1))


@st.composite
def _operations(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "replace", "query"]),
                st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8),
            ),
            min_size=1,
            max_size=25,
        )
    )


class TestInterleavedProperty:
    @settings(max_examples=40, deadline=None)
    @given(_operations())
    def test_cache_never_stale(self, operations):
        collection = IRSCollection("p", Analyzer(stemming=False, stopwords=set()))
        cache = collection.stats
        live = []  # doc ids currently in the collection
        for op, terms in operations:
            if op == "add" or (op in ("remove", "replace") and not live):
                live.append(collection.add_document(" ".join(terms)))
            elif op == "remove":
                collection.remove_document(live.pop(0))
            elif op == "replace":
                collection.replace_document(live[0], " ".join(terms))
            index = collection.index
            # Every cached statistic must agree with a from-scratch read.
            if index.document_count:
                expected_avg = index.token_count / index.document_count
                assert cache.average_document_length == pytest.approx(expected_avg)
            for term in VOCAB:
                assert cache.doc_id_set(term) == {
                    p.doc_id for p in index.postings(term)
                }
                if index.document_frequency(term):
                    assert cache.idf(term) == pytest.approx(
                        math.log(1.0 + index.document_count / index.document_frequency(term))
                    )
            for doc_id in live:
                assert cache.document_norm(doc_id) == pytest.approx(
                    fresh_expected_norm(index, doc_id)
                )

    @settings(max_examples=25, deadline=None)
    @given(_operations())
    def test_standalone_cache_matches_fresh_cache(self, operations):
        """A long-lived cache equals a cache built after all the updates."""
        manager = SegmentManager("p")
        index = UnionIndexView(manager)
        cache = StatisticsCache(index, manager.forward_vector)
        next_id = 1
        live = set()
        for op, terms in operations:
            if op in ("add", "replace", "query") or not live:
                manager.add_document(next_id, terms)
                live.add(next_id)
                next_id += 1
            else:
                oldest = min(live)
                manager.remove_document(oldest)
                live.remove(oldest)
            cache.average_document_length  # touch: force memo fill
            cache.doc_id_set(terms[0])
        fresh = StatisticsCache(index, manager.forward_vector)
        assert cache.average_document_length == fresh.average_document_length
        for term in VOCAB:
            assert cache.idf(term) == fresh.idf(term)
            assert cache.inquery_idf(term) == fresh.inquery_idf(term)
            assert cache.doc_id_set(term) == fresh.doc_id_set(term)
        for doc_id in live:
            assert cache.document_norm(doc_id) == fresh.document_norm(doc_id)
