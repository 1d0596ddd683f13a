"""MergedIndexView: one logical index over the segment stack.

The view exposes the full read *and* write surface of
:class:`~repro.irs.inverted_index.InvertedIndex`, so an
:class:`~repro.irs.collection.IRSCollection`, the retrieval models, the
statistics caches and the engine all run unchanged over segments:

* global counters (document/token/posting counts, average length) come
  from the manager's running live bookkeeping — O(1), integer-exact;
* ``document_frequency``/``collection_frequency`` sum each segment's O(1)
  live counters — O(#segments), integer-exact, so idf values are bit-equal
  to the monolithic index's;
* ``postings(term)`` concatenates per-segment live postings into one
  doc-id-ordered list, memoized per ``(epoch, structure)`` version so a
  term's merge cost is paid once per index generation (the segmented
  analogue of the monolithic ``_sorted`` memo);
* writes delegate to the manager (memtable append / tombstone).

Version discipline: the memo is rebuilt whenever the manager's
``(epoch, structure)`` pair moves.  Both counters only move under the
collection's write lock, and every read runs under the read lock, so a
reader can never observe a half-invalidated memo.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.irs.inverted_index import Posting
from repro.irs.postings import MergedCursor, PostingsCursor
from repro.irs.segments.manager import SegmentManager


class MergedIndexView:
    """Read/write facade with ``InvertedIndex``'s interface over segments."""

    def __init__(self, manager: SegmentManager) -> None:
        self._manager = manager
        self._memo_version: Optional[tuple] = None
        self._merged_postings: Dict[str, List[Posting]] = {}
        self._live_terms: Optional[List[str]] = None

    # -- building (delegates to the manager) -------------------------------

    def add_document(self, doc_id: int, terms: List[str]) -> None:
        self._manager.add_document(doc_id, terms)

    def remove_document(self, doc_id: int) -> None:
        self._manager.remove_document(doc_id)

    # -- versioning --------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Content generation — same invalidation contract as the
        monolithic :attr:`InvertedIndex.epoch`: unchanged scores <=>
        unchanged epoch.  Seals and merges do *not* bump it."""
        return self._manager.epoch

    def _memo(self) -> Dict[str, List[Posting]]:
        version = self._manager.version
        if self._memo_version != version:
            # Rebind (never mutate in place): a concurrent reader that
            # already fetched the old dict keeps reading consistent entries.
            self._merged_postings = {}
            self._live_terms = None
            self._memo_version = version
        return self._merged_postings

    # -- global statistics (O(1)) ------------------------------------------

    @property
    def document_count(self) -> int:
        return self._manager.document_count

    @property
    def token_count(self) -> int:
        return self._manager.token_count

    @property
    def average_document_length(self) -> float:
        count = self._manager.document_count
        if not count:
            return 0.0
        return self._manager.token_count / count

    @property
    def posting_count(self) -> int:
        manager = self._manager
        total = manager.memtable.index.posting_count
        for segment in manager.sealed_segments():
            total += segment.live_posting_count
        return total

    @property
    def term_count(self) -> int:
        return len(self._terms_memo())

    def document_length(self, doc_id: int) -> int:
        return self._manager.document_length(doc_id)

    def document_frequency(self, term: str) -> int:
        manager = self._manager
        df = manager.memtable.index.document_frequency(term)
        for segment in manager.sealed_segments():
            df += segment.document_frequency(term)
        return df

    def collection_frequency(self, term: str) -> int:
        manager = self._manager
        cf = manager.memtable.index.collection_frequency(term)
        for segment in manager.sealed_segments():
            cf += segment.collection_frequency(term)
        return cf

    # -- access ------------------------------------------------------------

    def postings(self, term: str) -> List[Posting]:
        """Live postings of ``term`` across all segments, doc-id order.

        Memoized per index version; callers must treat the list as
        read-only (same contract as ``InvertedIndex.postings``).
        """
        memo = self._memo()
        cached = memo.get(term)
        if cached is not None:
            return cached
        manager = self._manager
        lists = [
            live
            for segment in manager.sealed_segments()
            if (live := segment.live_postings(term))
        ]
        memtable_postings = manager.memtable.index.postings(term)
        if memtable_postings:
            lists.append(memtable_postings)
        if not lists:
            merged: List[Posting] = []
        elif len(lists) == 1:
            merged = lists[0]
        else:
            # Doc-id ranges of segments may interleave after merges, so a
            # plain concatenation is not enough; each input is sorted but we
            # sort the union (cheap: postings are few per term, memoized).
            merged = [p for sub in lists for p in sub]
            merged.sort(key=lambda posting: posting.doc_id)
        memo[term] = merged
        return merged

    def term_columns(self, term: str) -> Iterator[Tuple[List[int], List[int]]]:
        """Decoded live ``(doc_ids, tfs)`` columns, segment by segment.

        The scoring read path (see ``SealedSegment.term_columns``): doc ids
        ascend within a segment, not across segments, and nothing is
        memoized — consumers that need it cached keep the derived values.
        """
        manager = self._manager
        for segment in manager.sealed_segments():
            yield from segment.term_columns(term)
        yield from manager.memtable.term_columns(term)

    def term_cursors(self, term: str) -> List[PostingsCursor]:
        """One live cursor per segment holding ``term`` (memtable last).

        The top-k scorer consumes these per segment — doc ids are unique
        across live segments, so scoring each segment's cursor against a
        shared heap visits every live document exactly once while keeping
        each cursor's block bounds tight.
        """
        manager = self._manager
        cursors = []
        for segment in manager.sealed_segments():
            cursor = segment.term_cursor(term)
            if cursor is not None:
                cursors.append(cursor)
        memtable_cursor = manager.memtable.term_cursor(term)
        if memtable_cursor is not None:
            cursors.append(memtable_cursor)
        return cursors

    def cursor(self, term: str) -> Optional[PostingsCursor]:
        """One doc-id-ordered :class:`PostingsCursor` over the whole stack."""
        cursors = self.term_cursors(term)
        if not cursors:
            return None
        if len(cursors) == 1:
            return cursors[0]
        return MergedCursor(cursors)

    def term_frequency(self, term: str, doc_id: int) -> int:
        segment = self._manager.segment_of(doc_id)
        if segment is None:
            return 0
        return segment.index.term_frequency(term, doc_id)

    def positions(self, term: str, doc_id: int) -> Optional[List[int]]:
        segment = self._manager.segment_of(doc_id)
        if segment is None:
            return None
        return segment.index.positions(term, doc_id)

    def has_document(self, doc_id: int) -> bool:
        return self._manager.has_document(doc_id)

    def document_ids(self) -> List[int]:
        return sorted(self._manager._doc_lengths)

    def _terms_memo(self) -> List[str]:
        self._memo()
        terms = self._live_terms
        if terms is None:
            manager = self._manager
            live = set(manager.memtable.index.terms())
            for segment in manager.sealed_segments():
                for term in segment.index.terms():
                    if term not in live and segment.document_frequency(term) > 0:
                        live.add(term)
            terms = self._live_terms = list(live)
        return terms

    def terms(self) -> Iterator[str]:
        """All distinct live terms (unordered), memoized per version."""
        return iter(self._terms_memo())

    def document_vector(self, doc_id: int) -> Dict[str, int]:
        vector = self._manager.forward_vector(doc_id)
        return dict(vector) if vector else {}

    @property
    def doc_lengths(self) -> Dict[int, int]:
        """Live doc-id -> length map (read-only)."""
        return self._manager._doc_lengths

    # -- persistence helpers -----------------------------------------------

    def to_payload(self) -> dict:
        """A monolithic-format dump of the *live* logical index.

        Lets callers that expect ``InvertedIndex.to_payload`` (compression
        experiments, ad-hoc tooling) keep working; collection persistence
        uses the per-segment format instead (see ``IRSCollection``).
        """
        return {
            "doc_lengths": {
                str(doc_id): length
                for doc_id, length in self._manager._doc_lengths.items()
            },
            "postings": {
                term: {
                    str(posting.doc_id): posting.positions
                    for posting in self.postings(term)
                }
                for term in sorted(self._terms_memo())
            },
        }
