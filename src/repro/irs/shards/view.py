"""ShardUnionView: one logical index over a sharded collection.

The sharded analogue of :class:`~repro.irs.segments.view.MergedIndexView`:
the full read surface of :class:`~repro.irs.inverted_index.InvertedIndex`
over the shard sub-collections, so the retrieval models, the statistics
caches and the engine all run unchanged over shards:

* global counters (document/token/posting counts, average length) sum the
  shards' O(1) counters — integer-exact;
* ``document_frequency``/``collection_frequency`` sum per-shard counters,
  so idf values are bit-equal to the monolithic index's (the same
  exact-statistics argument the segment view makes, one level up);
* ``postings(term)`` concatenates per-shard live postings into one
  doc-id-ordered list, memoized per shard-version tuple;
* per-document lookups route to the owning shard through the collection's
  routing table — shards partition the document space, so exactly one
  shard can answer.

Writes go through :class:`~repro.irs.shards.collection.ShardedCollection`
(which routes them); the view deliberately refuses them so a stray caller
cannot bypass the routing table.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.irs.inverted_index import InvertedIndex, Posting
from repro.irs.postings import MergedCursor, PostingsCursor


class ShardUnionView:
    """Read facade with ``InvertedIndex``'s interface over shards."""

    def __init__(self, collection) -> None:
        self._collection = collection
        self._memo_version: Optional[tuple] = None
        self._merged_postings: Dict[str, List[Posting]] = {}
        self._live_terms: Optional[List[str]] = None
        self._lengths: Optional[Dict[int, int]] = None

    # -- building ----------------------------------------------------------

    def add_document(self, doc_id: int, terms: List[str]) -> None:
        raise TypeError(
            "documents enter a sharded collection through "
            "ShardedCollection.add_document (routing decides the shard)"
        )

    def remove_document(self, doc_id: int) -> None:
        raise TypeError(
            "documents leave a sharded collection through "
            "ShardedCollection.remove_document"
        )

    # -- versioning --------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Content generation: the sum of the shard epochs.

        Shard epochs only ever grow, so any content change strictly moves
        the sum — the invalidation contract (unchanged scores <=>
        unchanged epoch) holds exactly as it does per shard.
        """
        return sum(shard.index.epoch for shard in self._collection.shards)

    def _version(self) -> tuple:
        return self._collection.topk_version()

    def _memo(self) -> Dict[str, List[Posting]]:
        version = self._version()
        if self._memo_version != version:
            # Rebind (never mutate in place): a concurrent reader that
            # already fetched the old dict keeps reading consistent entries.
            self._merged_postings = {}
            self._live_terms = None
            self._lengths = None
            self._memo_version = version
        return self._merged_postings

    # -- global statistics -------------------------------------------------

    @property
    def document_count(self) -> int:
        return sum(shard.index.document_count for shard in self._collection.shards)

    @property
    def token_count(self) -> int:
        return sum(shard.index.token_count for shard in self._collection.shards)

    @property
    def average_document_length(self) -> float:
        count = self.document_count
        if not count:
            return 0.0
        return self.token_count / count

    @property
    def posting_count(self) -> int:
        return sum(shard.index.posting_count for shard in self._collection.shards)

    @property
    def term_count(self) -> int:
        return len(self._terms_memo())

    def document_length(self, doc_id: int) -> int:
        shard = self._collection.shard_for(doc_id)
        if shard is None:
            return 0
        return shard.index.document_length(doc_id)

    def document_frequency(self, term: str) -> int:
        return sum(
            shard.index.document_frequency(term)
            for shard in self._collection.shards
        )

    def collection_frequency(self, term: str) -> int:
        return sum(
            shard.index.collection_frequency(term)
            for shard in self._collection.shards
        )

    # -- access ------------------------------------------------------------

    def postings(self, term: str) -> List[Posting]:
        """Live postings of ``term`` across all shards, doc-id order.

        Memoized per shard-version tuple; callers must treat the list as
        read-only (same contract as ``InvertedIndex.postings``).
        """
        memo = self._memo()
        cached = memo.get(term)
        if cached is not None:
            return cached
        lists = [
            sub
            for shard in self._collection.shards
            if (sub := shard.index.postings(term))
        ]
        if not lists:
            merged: List[Posting] = []
        elif len(lists) == 1:
            merged = lists[0]
        else:
            # Doc ids interleave freely across shards (routing is a hash,
            # not a range), so sort the union; cheap and memoized.
            merged = [p for sub in lists for p in sub]
            merged.sort(key=lambda posting: posting.doc_id)
        memo[term] = merged
        return merged

    def term_columns(self, term: str) -> Iterator[Tuple[List[int], List[int]]]:
        """Decoded live ``(doc_ids, tfs)`` columns, shard by shard."""
        for shard in self._collection.shards:
            yield from shard.index.term_columns(term)

    def term_cursors(self, term: str) -> List[PostingsCursor]:
        """All live cursors holding ``term``, shard by shard."""
        cursors: List[PostingsCursor] = []
        for shard in self._collection.shards:
            index = shard.index
            if isinstance(index, InvertedIndex):
                cursor = index.cursor(term)
                if cursor is not None:
                    cursors.append(cursor)
            else:
                cursors.extend(index.term_cursors(term))
        return cursors

    def cursor(self, term: str) -> Optional[PostingsCursor]:
        """One doc-id-ordered cursor over every shard holding ``term``."""
        cursors = self.term_cursors(term)
        if not cursors:
            return None
        if len(cursors) == 1:
            return cursors[0]
        return MergedCursor(cursors)

    def term_frequency(self, term: str, doc_id: int) -> int:
        shard = self._collection.shard_for(doc_id)
        if shard is None:
            return 0
        return shard.index.term_frequency(term, doc_id)

    def positions(self, term: str, doc_id: int) -> Optional[List[int]]:
        shard = self._collection.shard_for(doc_id)
        if shard is None:
            return None
        return shard.index.positions(term, doc_id)

    def has_document(self, doc_id: int) -> bool:
        shard = self._collection.shard_for(doc_id)
        return shard is not None and shard.index.has_document(doc_id)

    def document_ids(self) -> List[int]:
        return sorted(self.doc_lengths)

    def _terms_memo(self) -> List[str]:
        self._memo()
        terms = self._live_terms
        if terms is None:
            live: set = set()
            for shard in self._collection.shards:
                live.update(shard.index.terms())
            terms = self._live_terms = list(live)
        return terms

    def terms(self) -> Iterator[str]:
        """All distinct live terms (unordered), memoized per version."""
        return iter(self._terms_memo())

    def document_vector(self, doc_id: int) -> Dict[str, int]:
        shard = self._collection.shard_for(doc_id)
        if shard is None:
            return {}
        return shard.index.document_vector(doc_id)

    @property
    def doc_lengths(self) -> Dict[int, int]:
        """Live doc-id -> length map, memoized per version (read-only)."""
        self._memo()
        lengths = self._lengths
        if lengths is None:
            lengths = {}
            for shard in self._collection.shards:
                lengths.update(shard.index.doc_lengths)
            self._lengths = lengths
        return lengths

    # -- persistence helpers -----------------------------------------------

    def to_payload(self) -> dict:
        """A monolithic-format dump of the live logical index.

        Collection persistence uses the per-shard format instead (see
        ``ShardedCollection.to_payload``); this keeps callers expecting
        ``InvertedIndex.to_payload`` working.
        """
        return {
            "doc_lengths": {
                str(doc_id): length
                for doc_id, length in self.doc_lengths.items()
            },
            "postings": {
                term: {
                    str(posting.doc_id): posting.positions
                    for posting in self.postings(term)
                }
                for term in sorted(self._terms_memo())
            },
        }
