"""Collection statistics: the scoring cache plus corpus-realism checks.

Two concerns live here:

* :class:`StatisticsCache` — the query-evaluation fast path's memo of
  global statistics (average document length, per-term df/idf, per-document
  TF-IDF norms, per-term document-id sets).  One instance is attached to
  each :class:`~repro.irs.collection.IRSCollection`; every read validates against the index epoch and
  drops all memos when the index mutated, so interleaved
  add/remove/query sequences never observe stale values.  Norms come from
  forward vectors one document at a time.
* Zipf and Heaps diagnostics that validate the seeded synthetic corpus
  behaves like natural-language text (see DESIGN.md §2).  The STATS
  benchmark prints them; the corpus tests assert sane ranges.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.irs.inverted_index import InvertedIndex
from repro.irs.view import UnionIndexView


class StatisticsCache:
    """Epoch-validated memo of the index statistics scoring needs.

    Every accessor first compares the index's epoch with the epoch the
    memos were built at; a mismatch clears everything.  Per-term values are
    filled lazily; so are per-document norms, each computed on demand from
    the document's ``{term: tf}`` forward vector (``forward_vector(doc_id)``,
    O(|document|) for a segment stack): a query scoring k documents after an update costs O(sum of their vector
    sizes), never a sweep over every postings list.

    Accessors are serialized by a re-entrant lock so concurrent scorers on
    the service layer's worker pool never observe a half-built memo; the
    critical sections are dict probes plus the norms of the documents
    asked for, so contention stays negligible next to scoring itself.
    """

    def __init__(
        self, index, forward_vector: Callable[[int], Optional[Mapping[str, int]]]
    ) -> None:
        self._index = index
        self._forward_vector = forward_vector
        self._epoch = -1
        self._lock = threading.RLock()
        self._avg_dl: Optional[float] = None
        self._idf: Dict[str, float] = {}
        self._inquery_idf: Dict[str, float] = {}
        self._doc_id_sets: Dict[str, FrozenSet[int]] = {}
        self._doc_norms: Dict[int, float] = {}
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
            self._doc_norms = {}

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/invalidation counters as a plain dict."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
            }

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
        call per id: O(1) per memoized document, O(|document terms|) per
        miss.
        """
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
        """The document's terms in **sorted order** with the memoized global
        idf: a canonical float accumulation, so the norm is bit-identical
        whichever source of the segment stack holds the document."""
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
    index: UnionIndexView, document_term_lists: List[List[str]]
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
