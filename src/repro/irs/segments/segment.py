"""Segments: the building blocks of the log-structured index.

A collection's postings live in a stack of segments:

* :class:`MemtableSegment` — the single mutable in-memory segment.  Small
  writes land here; removal is physical because the memtable is small.
* :class:`SealedSegment` — an immutable segment produced by sealing a full
  memtable, by inverting a seal-sized chunk of an indexing batch, or by
  merging.  Its postings never change; deletion is logical via
  :meth:`SealedSegment.tombstone`, which records per-term dead
  document/collection frequencies so merged statistics stay integer-exact
  without rescanning postings.

Both keep a *forward map* (doc id -> term -> tf) alongside the inverted
postings.  The forward map makes tombstoning O(|document|) instead of
O(vocabulary), lets the statistics layer compute one document's norm
without sweeping every postings list, and is what a merge reads to carry
live documents into the merged segment.

Nothing here locks: callers synchronize through the engine's
per-collection :class:`~repro.sync.ReadWriteLock` (see
:mod:`repro.irs.segments.manager` for the locking contract of each call).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.irs.inverted_index import InvertedIndex, Posting
from repro.irs.postings import CompactIndex, add_posting


@dataclass(frozen=True)
class SegmentConfig:
    """Tuning knobs of the segmented index (documented in docs/api.md).

    The defaults are sized for this reproduction's corpora (hundreds to a
    few tens of thousands of short documents): the memtable seals at 1024
    documents or 256k tokens, and the size-tiered merge policy folds a tier
    once ``tier_fanout`` segments of similar size have accumulated.
    """

    #: Seal the memtable once it holds this many documents ...
    seal_document_count: int = 1024
    #: ... or this many tokens, whichever comes first.
    seal_token_count: int = 262_144
    #: A size tier is ``floor(log_fanout(live_docs))``; a tier with this many
    #: segments is merged into one.
    tier_fanout: int = 4
    #: Upper bound on segments folded by a single merge.
    max_merge_segments: int = 10
    #: A sealed segment whose tombstone ratio reaches this is rewritten
    #: (merged alone) even when its size tier is not full.
    tombstone_purge_ratio: float = 0.25

    def __post_init__(self) -> None:
        # A fold of one segment of a full tier leaves the tier full, and
        # ``SegmentManager.seal_and_fold`` would fold it forever.
        if self.tier_fanout < 2 or self.max_merge_segments < 2:
            raise ValueError("tier_fanout and max_merge_segments must be at least 2")


def _live_entries(segment: "SealedSegment", term: str) -> Iterator[tuple]:
    """``(doc_id, tf, positions)`` of one input's live postings, doc order."""
    dead = segment.tombstones
    for entry in segment.index.entries(term):
        if entry[0] not in dead:
            yield entry


class MemtableSegment:
    """The mutable in-memory segment absorbing all writes.

    Its :attr:`index` (dict form, every document live) is the memtable's
    scoring source; the segment adds the forward map and the seal.
    """

    __slots__ = ("segment_id", "index", "forward")

    def __init__(self, segment_id: int) -> None:
        self.segment_id = segment_id
        self.index = InvertedIndex()
        #: doc id -> {term: tf}; maintained incrementally on add/remove.
        self.forward: Dict[int, Dict[str, int]] = {}

    def add_document(self, doc_id: int, terms: List[str]) -> None:
        grouped = self.index.add_document(doc_id, terms)
        self.forward[doc_id] = {term: len(at) for term, at in grouped.items()}

    def remove_document(self, doc_id: int) -> None:
        """Physical removal: the memtable is the one segment that can."""
        vector = self.forward.pop(doc_id)
        self.index.remove_document(doc_id, terms=list(vector))

    @property
    def document_count(self) -> int:
        return self.index.document_count

    @property
    def token_count(self) -> int:
        return self.index.token_count

    def approx_bytes(self) -> int:
        """Rough heap footprint of the dict-form memtable, for health reports.

        Dict-form postings cost a posting object (~64 B) plus its inverted-
        and forward-map slots (~2 dict entries, ~70 B) per token occurrence,
        and per-document overhead (forward vector dict, length entry).  A
        coarse constant-factor model — the point is the trend (memtable
        growth between seals), not an exact byte count.
        """
        return 144 * self.index.posting_count + 96 * self.index.document_count

    def seal(self) -> "SealedSegment":
        """Freeze this memtable into a sealed segment.

        The handover re-encodes the memtable's dict postings into the
        compact block form — O(memtable tokens) once per sealed segment,
        amortized across the small writes that filled it (a batch's full
        chunks skip the memtable: :meth:`SealedSegment.from_documents`).
        """
        compact = CompactIndex.from_inverted(self.index)
        return SealedSegment(self.segment_id, compact, self.forward)


class SealedSegment:
    """An immutable segment: frozen postings plus tombstone bookkeeping.

    Postings and document lengths never change after sealing; deletion is
    recorded in :attr:`tombstones` and in per-term dead-frequency counters,
    so live df/cf/posting counts are O(1) subtractions.  The forward map
    holds exactly the *live* documents (a tombstone pops its entry after
    charging the counters).

    The index is always a :class:`~repro.irs.postings.CompactIndex` (block
    postings): sealing, merging and loading all emit that form natively.

    A sealed segment is a scoring source: ``document_frequency``,
    ``collection_frequency``, ``posting_count``, ``terms``, ``postings``
    and ``term_columns`` answer for its *live* documents (see
    :mod:`repro.irs.view` for the contract).
    """

    __slots__ = (
        "segment_id",
        "index",
        "forward",
        "tombstones",
        "dead_documents",
        "dead_tokens",
        "_dead_df",
        "_dead_cf",
        "_dead_postings",
        "store_stamp",
    )

    def __init__(
        self,
        segment_id: int,
        index: CompactIndex,
        forward: Dict[int, Dict[str, int]],
    ) -> None:
        self.segment_id = segment_id
        self.index = index
        self.forward = forward
        self.tombstones: Set[int] = set()
        self.dead_documents = 0
        self.dead_tokens = 0
        self._dead_df: Dict[str, int] = {}
        self._dead_cf: Dict[str, int] = {}
        self._dead_postings = 0
        #: ``(store_token, offset, length)`` of this segment's record in the
        #: single-file store, set by the store on write or load.  Postings
        #: are immutable, so a stamped segment is never written again —
        #: the incremental-checkpoint invariant (tombstones travel in the
        #: manifest, not in the segment record).
        self.store_stamp = None

    # -- deletion ---------------------------------------------------------

    def tombstone(self, doc_id: int) -> None:
        """Logically delete ``doc_id``: O(|document terms|), no index edit."""
        vector = self.forward.pop(doc_id)
        self.tombstones.add(doc_id)
        self.dead_documents += 1
        self.dead_tokens += self.index.document_length(doc_id)
        self._dead_postings += len(vector)
        for term, tf in vector.items():
            self._dead_df[term] = self._dead_df.get(term, 0) + 1
            self._dead_cf[term] = self._dead_cf.get(term, 0) + tf

    # -- live statistics (exact, O(1) per term) ---------------------------

    @property
    def live_document_count(self) -> int:
        return self.index.document_count - self.dead_documents

    @property
    def live_token_count(self) -> int:
        return self.index.token_count - self.dead_tokens

    @property
    def posting_count(self) -> int:
        return self.index.posting_count - self._dead_postings

    @property
    def tombstone_ratio(self) -> float:
        physical = self.index.document_count
        return self.dead_documents / physical if physical else 0.0

    def document_frequency(self, term: str) -> int:
        df = self.index.document_frequency(term) - self._dead_df.get(term, 0)
        return df if df > 0 else 0

    def collection_frequency(self, term: str) -> int:
        cf = self.index.collection_frequency(term) - self._dead_cf.get(term, 0)
        return cf if cf > 0 else 0

    def terms(self) -> Iterator[str]:
        """Terms with at least one live posting (unordered)."""
        terms = self.index.terms()
        if not self._dead_df:
            return terms
        return (term for term in terms if self.document_frequency(term))

    def postings(self, term: str) -> List[Posting]:
        """Postings of ``term`` restricted to live documents, doc-id order."""
        postings = self.index.postings(term)
        if not self._dead_df.get(term):
            return postings
        return [p for p in postings if p.doc_id in self.forward]

    def term_columns(self, term: str) -> Iterator[Tuple[List[int], List[int]]]:
        """Decoded ``(doc_ids, tfs)`` columns of ``term``, live documents only.

        One pair per block of the index (a block whose documents are all
        tombstoned yields two empty lists, so block counts do not depend on
        deletions).  The live filter runs only when the term actually has
        tombstoned documents; positions are never decoded.
        """
        columns = self.index.term_columns(term)
        if not self._dead_df.get(term):
            return columns
        return self._live_columns(columns)

    def _live_columns(self, columns) -> Iterator[Tuple[List[int], List[int]]]:
        live = self.forward
        for ids, tfs in columns:
            kept = [(doc_id, tf) for doc_id, tf in zip(ids, tfs) if doc_id in live]
            yield [doc_id for doc_id, _tf in kept], [tf for _doc_id, tf in kept]

    @property
    def doc_lengths(self) -> Dict[int, int]:
        """Physical doc id -> length map (tombstoned documents included)."""
        return self.index.doc_lengths

    def postings_bytes(self) -> int:
        """Bytes of this segment's postings representation."""
        return self.index.postings_bytes()

    # -- persistence ------------------------------------------------------

    @classmethod
    def from_payload(cls, segment_id: int, payload: dict) -> "SealedSegment":
        # A CompactIndex (a native store record), or the older JSON index
        # schema (docs/storage-format.md) to encode.
        index = payload["index"]
        if not isinstance(index, CompactIndex):
            index = CompactIndex.from_payload(index)
        segment = cls(segment_id, index, index.forward_map())
        for doc_id in payload.get("tombstones", ()):
            segment.tombstone(int(doc_id))
        return segment

    @classmethod
    def from_documents(cls, segment_id: int, documents: Sequence[tuple]) -> "SealedSegment":
        """Invert analysed ``(doc_id, terms)``, ids ascending, straight into
        a sealed segment: one pass fills the terms' columns and the forward
        map, and no per-posting object outlives its document.  Terms keep
        first-occurrence order, so the memtable's seal writes the same bytes."""
        columns: Dict[str, tuple] = {}
        forward: Dict[int, Dict[str, int]] = {}
        for doc_id, terms in documents:
            grouped: Dict[str, List[int]] = {}
            for position, term in enumerate(terms):
                grouped.setdefault(term, []).append(position)
            vector = forward[doc_id] = {}
            for term, at in grouped.items():
                column = columns.get(term)
                if column is None:
                    column = columns[term] = ([], [], bytearray(), [])
                add_posting(column, doc_id, at)
                vector[term] = len(at)
        index = CompactIndex.from_columns(
            columns.items(), {doc_id: len(terms) for doc_id, terms in documents}
        )
        return cls(segment_id, index, forward)

    # -- merging ----------------------------------------------------------

    @classmethod
    def merged(
        cls, segment_id: int, segments: Sequence["SealedSegment"]
    ) -> "SealedSegment":
        """Fold ``segments`` into one, dropping their tombstoned documents.

        Reads only the inputs' postings and tombstones and registers
        nothing: the caller (``SegmentManager.fold``) splices the result
        in under the collection write lock.

        Build-once: live entries stream per term straight from the inputs'
        blocks through a k-way merge into the one record writer's columns
        (:meth:`~repro.irs.postings.CompactIndex.from_entry_streams`) — no
        dict-of-Posting intermediate is ever materialized.
        """
        doc_lengths: Dict[int, int] = {}
        forward: Dict[int, Dict[str, int]] = {}
        for segment in segments:
            for doc_id, length in segment.index._doc_lengths.items():
                if doc_id not in segment.tombstones:
                    doc_lengths[doc_id] = length
                    forward[doc_id] = {}
        # Each term at its first appearance across the inputs, in input
        # order: a fold's bytes follow from its inputs, not from str hashing.
        all_terms = dict.fromkeys(term for segment in segments for term in segment.index.terms())

        def entries_of(term: str) -> Iterator[tuple]:
            # Doc-id ranges may interleave after earlier merges, so the
            # per-segment sorted streams go through a k-way heap merge.
            streams = [_live_entries(segment, term) for segment in segments]
            for doc_id, tf, positions in heapq.merge(*streams):
                forward[doc_id][term] = tf
                yield doc_id, tf, positions

        merged_index = CompactIndex.from_entry_streams(
            ((term, entries_of(term)) for term in all_terms), doc_lengths
        )
        return cls(segment_id, merged_index, forward)
