"""UnionIndexView: one logical index over a versioned list of sources.

A collection's postings live in one or more **scoring sources** — the
sealed segments plus the memtable index of its segment manager.  Each source answers the same small
read contract over its own *live* documents:

* ``term_columns(term)`` — decoded ``(doc_ids, tfs)`` blocks, what every
  scorer reads (no position decoded, no posting object built);
* ``postings(term)`` — :class:`Posting` lists with positions, doc-id order
  (proximity, passages, tooling);
* ``document_frequency`` / ``collection_frequency`` / ``posting_count`` /
  ``terms()`` — integer-exact live counters;
* ``doc_lengths`` — doc id -> length of (at least) its live documents.

The sources answer nothing more: this view is the one full read surface
(statistics, postings, point lookups, document vectors, the epoch) that
the retrieval models, the statistics caches and the engine read, over any
source list.  Its **owner** — the
collection's :class:`~repro.irs.segments.manager.SegmentManager` —
supplies only what the view cannot derive:

* ``scoring_sources()`` and ``index_version`` (the memo key; moves on every
  content *or* structure change) plus ``epoch`` (content changes only —
  what the statistics caches invalidate on);
* the live counters it already keeps: ``document_count``, ``token_count``,
  ``doc_lengths``, ``document_length(doc_id)``;
* the doc -> part lookups: ``index_of(doc_id)`` (an index answering
  ``term_frequency``/``positions`` for that document, None when absent)
  and ``forward_vector(doc_id)``.

Statistics are sums of the sources' integer counters, so idf values are
bit-equal to a fresh :class:`InvertedIndex` holding the same documents.  The view is
read-only: writes enter through the collection, which owns the manager.

Version discipline: the per-term merged postings and the term list are
memoized per ``index_version``.  Versions only move under the collection's
write lock and every read runs under the read lock, so a reader can never
observe a half-invalidated memo.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.irs.inverted_index import Posting


class UnionIndexView:
    """The full index read surface over an owner's sources."""

    def __init__(self, owner) -> None:
        self._owner = owner
        self._memo_version: Optional[tuple] = None
        self._merged_postings: Dict[str, List[Posting]] = {}
        self._live_terms: Optional[List[str]] = None

    # -- versioning --------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Content generation: unchanged scores <=> unchanged epoch.
        Seals and merges do *not* bump it."""
        return self._owner.epoch

    def _memo(self) -> Dict[str, List[Posting]]:
        version = self._owner.index_version
        if self._memo_version != version:
            # Rebind (never mutate in place): a concurrent reader that
            # already fetched the old dict keeps reading consistent entries.
            self._merged_postings = {}
            self._live_terms = None
            self._memo_version = version
        return self._merged_postings

    # -- global statistics -------------------------------------------------

    @property
    def document_count(self) -> int:
        return self._owner.document_count

    @property
    def token_count(self) -> int:
        return self._owner.token_count

    @property
    def average_document_length(self) -> float:
        count = self._owner.document_count
        if not count:
            return 0.0
        return self._owner.token_count / count

    @property
    def posting_count(self) -> int:
        return sum(source.posting_count for source in self._owner.scoring_sources())

    @property
    def term_count(self) -> int:
        return len(self._terms_memo())

    def document_length(self, doc_id: int) -> int:
        return self._owner.document_length(doc_id)

    def document_frequency(self, term: str) -> int:
        return sum(
            source.document_frequency(term)
            for source in self._owner.scoring_sources()
        )

    def collection_frequency(self, term: str) -> int:
        return sum(
            source.collection_frequency(term)
            for source in self._owner.scoring_sources()
        )

    # -- access ------------------------------------------------------------

    def _live_postings(self, term: str) -> List[Posting]:
        lists = [
            live
            for source in self._owner.scoring_sources()
            if (live := source.postings(term))
        ]
        if not lists:
            return []
        if len(lists) == 1:
            return lists[0]
        # Doc-id ranges interleave across sources (merges fold old and new
        # segments), so concatenation is not enough; each input is sorted
        # but we sort the union (cheap: postings are few per term).
        merged = [posting for sub in lists for posting in sub]
        merged.sort(key=lambda posting: posting.doc_id)
        return merged

    def postings(self, term: str) -> List[Posting]:
        """Live postings of ``term`` across all sources, doc-id order.

        Memoized per index version; callers must treat the list as
        read-only (same contract as ``InvertedIndex.postings``).
        """
        memo = self._memo()
        cached = memo.get(term)
        if cached is None:
            cached = memo[term] = self._live_postings(term)
        return cached

    def term_columns(self, term: str) -> Iterator[Tuple[List[int], List[int]]]:
        """Decoded live ``(doc_ids, tfs)`` columns, source by source.

        The scoring read path: doc ids ascend within a source, not across
        sources, and nothing is memoized — consumers that need it cached
        keep the derived values.
        """
        for source in self._owner.scoring_sources():
            yield from source.term_columns(term)

    def term_frequency(self, term: str, doc_id: int) -> int:
        index = self._owner.index_of(doc_id)
        if index is None:
            return 0
        return index.term_frequency(term, doc_id)

    def positions(self, term: str, doc_id: int) -> Optional[List[int]]:
        index = self._owner.index_of(doc_id)
        if index is None:
            return None
        return index.positions(term, doc_id)

    def document_ids(self) -> List[int]:
        return sorted(self._owner.doc_lengths)

    def _terms_memo(self) -> List[str]:
        self._memo()
        terms = self._live_terms
        if terms is None:
            live: set = set()
            for source in self._owner.scoring_sources():
                live.update(source.terms())
            terms = self._live_terms = list(live)
        return terms

    def terms(self) -> Iterator[str]:
        """All distinct live terms (unordered), memoized per version."""
        return iter(self._terms_memo())

    def document_vector(self, doc_id: int) -> Dict[str, int]:
        vector = self._owner.forward_vector(doc_id)
        return dict(vector) if vector else {}

    @property
    def doc_lengths(self) -> Dict[int, int]:
        """Live doc-id -> length map (read-only)."""
        return self._owner.doc_lengths
