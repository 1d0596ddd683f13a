"""Collection statistics: the scoring cache plus corpus-realism checks.

Two concerns live here:

* :class:`StatisticsCache` — the query-evaluation fast path's memo of
  global statistics (average document length, per-term df/idf, per-document
  TF-IDF norms, per-term document-id sets).  One instance is attached to
  each :class:`~repro.irs.collection.IRSCollection`; every read validates
  against :attr:`InvertedIndex.epoch` and drops all memos when the index
  mutated, so interleaved add/remove/query sequences never observe stale
  values.
* Zipf and Heaps diagnostics that validate the seeded synthetic corpus
  behaves like natural-language text (see DESIGN.md §2).  The STATS
  benchmark prints them; the corpus tests assert sane ranges.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.irs.inverted_index import InvertedIndex


class StatisticsCache:
    """Epoch-validated memo of the index statistics scoring needs.

    Every accessor first compares the index's epoch with the epoch the
    memos were built at; a mismatch clears everything.  Per-term values are
    filled lazily; per-document norms are built for *all* documents in one
    pass over the postings the first time any norm is requested — one
    O(postings) sweep instead of an O(vocabulary) scan per scored document.

    Accessors are serialized by a re-entrant lock so concurrent scorers on
    the service layer's worker pool never observe a half-built memo; the
    critical sections are dict probes (plus one norm sweep on a cold
    cache), so contention stays negligible next to scoring itself.
    """

    def __init__(self, index: InvertedIndex) -> None:
        self._index = index
        self._epoch = -1
        self._lock = threading.RLock()
        self._avg_dl: Optional[float] = None
        self._idf: Dict[str, float] = {}
        self._inquery_idf: Dict[str, float] = {}
        self._doc_id_sets: Dict[str, FrozenSet[int]] = {}
        self._norms: Optional[Dict[int, float]] = None
        # Plain ints, not registry instruments: these sit on the per-document
        # scoring fast path where even a dict lookup per access would show up.
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def _validate(self) -> None:
        if self._epoch != self._index.epoch:
            if self._epoch != -1:
                self.invalidations += 1
            self._epoch = self._index.epoch
            self._avg_dl = None
            self._idf.clear()
            self._inquery_idf.clear()
            self._doc_id_sets.clear()
            self._norms = None

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/invalidation counters as a plain dict."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
            }

    def reset_cache_info(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.invalidations = 0

    @property
    def index(self) -> InvertedIndex:
        return self._index

    @property
    def average_document_length(self) -> float:
        """Memoized mean document length."""
        with self._lock:
            self._validate()
            if self._avg_dl is None:
                self.misses += 1
                self._avg_dl = self._index.average_document_length
            else:
                self.hits += 1
            return self._avg_dl

    def document_frequency(self, term: str) -> int:
        """df of ``term`` (delegates to the index; already O(1))."""
        return self._index.document_frequency(term)

    def idf(self, term: str) -> float:
        """The vector model's idf, ``log(1 + N/df)`` (0.0 when df == 0)."""
        with self._lock:
            self._validate()
            cached = self._idf.get(term)
            if cached is None:
                self.misses += 1
                df = self._index.document_frequency(term)
                if df == 0:
                    cached = 0.0
                else:
                    cached = math.log(1.0 + self._index.document_count / df)
                self._idf[term] = cached
            else:
                self.hits += 1
            return cached

    def inquery_idf(self, term: str) -> float:
        """INQUERY's scaled idf part, clamped to [0, 1] (0.0 when df == 0)."""
        with self._lock:
            self._validate()
            cached = self._inquery_idf.get(term)
            if cached is None:
                self.misses += 1
                df = self._index.document_frequency(term)
                n_docs = self._index.document_count
                if df == 0 or n_docs == 0:
                    cached = 0.0
                else:
                    part = math.log((n_docs + 0.5) / df) / math.log(n_docs + 1.0)
                    cached = max(0.0, min(1.0, part))
                self._inquery_idf[term] = cached
            else:
                self.hits += 1
            return cached

    def doc_id_set(self, term: str) -> FrozenSet[int]:
        """The set of documents containing ``term`` (memoized)."""
        with self._lock:
            self._validate()
            cached = self._doc_id_sets.get(term)
            if cached is None:
                self.misses += 1
                cached = frozenset(
                    chain.from_iterable(
                        ids for ids, _tfs in self._index.term_columns(term)
                    )
                )
                self._doc_id_sets[term] = cached
            else:
                self.hits += 1
            return cached

    def document_norm(self, doc_id: int) -> float:
        """TF-IDF norm of one document (0.0 for unknown documents)."""
        return self.document_norms((doc_id,))[0]

    def document_norms(self, doc_ids: Sequence[int]) -> List[float]:
        """TF-IDF norms of ``doc_ids``, aligned (0.0 for unknown documents).

        The bulk form scoring uses: one lock acquisition and one epoch
        validation per column instead of one per posting.  ``hits`` and
        ``misses`` move exactly as they would for one :meth:`document_norm`
        call per id.

        Norms of *all* documents are built together on first access: one
        pass over every term's columns accumulates squared weights per
        document, then a square root per document.

        The sweep walks terms in **sorted order** with idf computed from the
        index's ``document_frequency`` (the same expression :meth:`idf`
        memoizes, not the local postings-list length).  That makes each
        document's float accumulation canonical — its own terms in sorted
        order, global df — and therefore bit-identical across every index
        representation (monolithic, segment stack, shard union, worker
        replica), which the sharded-scoring equivalence guarantee relies on.
        """
        with self._lock:
            self._validate()
            if not doc_ids:
                return []
            if self._norms is None:
                self.misses += 1
                self.hits += len(doc_ids) - 1
                index = self._index
                n_docs = index.document_count
                log = math.log
                squared: Dict[int, float] = {d: 0.0 for d in index.document_ids()}
                for term in sorted(index.terms()):
                    df = index.document_frequency(term)
                    if df == 0:
                        continue
                    idf = log(1.0 + n_docs / df)
                    for ids, tfs in index.term_columns(term):
                        for doc_id, tf in zip(ids, tfs):
                            w = (1.0 + log(tf)) * idf
                            squared[doc_id] += w * w
                self._norms = {d: math.sqrt(total) for d, total in squared.items()}
            else:
                self.hits += len(doc_ids)
            return list(map(self._norms.get, doc_ids, repeat(0.0)))


class ForwardNormStatistics(StatisticsCache):
    """Statistics memo with per-document lazy norms from forward vectors.

    The base class builds the norms of *all* documents in one O(postings)
    sweep the first time any norm is read, and again after every epoch
    bump.  Where a forward map gives each document's ``{term: tf}`` vector
    in O(|document|) (segment stacks, shard unions), norms are computed per
    document on demand instead: a query scoring k documents after an update
    costs O(sum of their vector sizes), not O(total postings).

    Each norm accumulates the document's terms in **sorted order** with the
    memoized global idf — the canonical order of the base-class sweep — so
    it is bit-identical to the monolithic cache's, not merely close.
    """

    def __init__(
        self, index, forward_vector: Callable[[int], Optional[Dict[str, int]]]
    ) -> None:
        super().__init__(index)
        self._forward_vector = forward_vector
        self._doc_norms: Dict[int, float] = {}

    def _validate(self) -> None:
        if self._epoch != self._index.epoch:
            self._doc_norms = {}
        super()._validate()

    def document_norms(self, doc_ids: Sequence[int]) -> List[float]:
        """O(1) per memoized document, O(|document terms|) per miss."""
        with self._lock:
            self._validate()
            memo = self._doc_norms
            norms = list(map(memo.get, doc_ids))
            misses = 0
            if None in norms:
                for i, doc_id in enumerate(doc_ids):
                    if norms[i] is not None:
                        continue
                    # Probe again: an id repeated in the column was memoized
                    # by its first occurrence (a hit, as in a per-id loop).
                    norm = memo.get(doc_id)
                    if norm is None:
                        misses += 1
                        norm = memo[doc_id] = self._norm_of(doc_id)
                    norms[i] = norm
            self.misses += misses
            self.hits += len(norms) - misses
            return norms

    def _norm_of(self, doc_id: int) -> float:
        vector = self._forward_vector(doc_id)
        if not vector:
            return 0.0
        idf_memo = self._idf
        log = math.log
        total = 0.0
        for term in sorted(vector):
            idf = idf_memo.get(term)
            if idf is None:
                idf = self.idf(term)  # counts the miss, fills the memo
            else:
                self.hits += 1
            weight = (1.0 + log(vector[term])) * idf
            total += weight * weight
        return math.sqrt(total)


@dataclass(frozen=True)
class CollectionStatistics:
    """Summary statistics of one inverted index."""

    documents: int
    tokens: int
    vocabulary: int
    postings: int
    average_document_length: float
    zipf_slope: float
    heaps_beta: float

    @property
    def type_token_ratio(self) -> float:
        if self.tokens == 0:
            return 0.0
        return self.vocabulary / self.tokens


def rank_frequency(index: InvertedIndex) -> List[Tuple[int, int]]:
    """(rank, collection frequency) pairs, most frequent first."""
    frequencies = sorted(
        (index.collection_frequency(term) for term in index.terms()), reverse=True
    )
    return [(rank, frequency) for rank, frequency in enumerate(frequencies, start=1)]


def zipf_slope(index: InvertedIndex) -> float:
    """Least-squares slope of log(frequency) vs log(rank).

    Natural text sits near -1; a uniform vocabulary would be near 0.
    """
    points = [
        (math.log(rank), math.log(frequency))
        for rank, frequency in rank_frequency(index)
        if frequency > 0
    ]
    return _slope(points)


def heaps_beta(document_term_lists: List[List[str]]) -> float:
    """Heaps' law exponent beta from V(n) ~ K * n^beta.

    Computed as the slope of log V against log n over the running corpus;
    natural text sits around 0.4-0.8.
    """
    seen: set = set()
    tokens = 0
    points = []
    for terms in document_term_lists:
        tokens += len(terms)
        seen.update(terms)
        if tokens > 0 and len(seen) > 1:
            points.append((math.log(tokens), math.log(len(seen))))
    return _slope(points)


def _slope(points: List[Tuple[float, float]]) -> float:
    n = len(points)
    if n < 2:
        return 0.0
    sum_x = sum(x for x, _y in points)
    sum_y = sum(y for _x, y in points)
    sum_xx = sum(x * x for x, _y in points)
    sum_xy = sum(x * y for x, y in points)
    denominator = n * sum_xx - sum_x * sum_x
    if abs(denominator) < 1e-12:
        return 0.0
    return (n * sum_xy - sum_x * sum_y) / denominator


def collection_statistics(
    index: InvertedIndex, document_term_lists: List[List[str]]
) -> CollectionStatistics:
    """All summary statistics in one call."""
    return CollectionStatistics(
        documents=index.document_count,
        tokens=index.token_count,
        vocabulary=index.term_count,
        postings=index.posting_count,
        average_document_length=index.average_document_length,
        zipf_slope=zipf_slope(index),
        heaps_beta=heaps_beta(document_term_lists),
    )


def statistics_for_collection(collection) -> CollectionStatistics:
    """Statistics of an :class:`~repro.irs.collection.IRSCollection`."""
    term_lists = [
        collection.analyzer.tokens(document.text)
        for document in collection.documents()
    ]
    return collection_statistics(collection.index, term_lists)
