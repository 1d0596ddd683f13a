"""Compact block postings: the sealed segments' native representation.

The paper's IRS transforms documents "to an internal representation (e.g.,
inverted lists)" (Section 1.1); Papadakos et al. (PAPERS.md) show that the
*choice* of that internal representation — not just the scoring algorithm —
drives an order of magnitude in throughput.  This module replaces the
dict-of-:class:`~repro.irs.inverted_index.Posting` hot path for immutable
(sealed) segments with the classic compact layout:

* per term, document ids are delta-encoded (gaps) and written as stop-bit
  varints (:mod:`repro.irs.compression`, the [SAZ94] lineage) in fixed-size
  **blocks** of :data:`BLOCK_SIZE` documents, each block followed by the
  varint term frequencies of its documents;
* per block, the metadata arrays keep the **last document id** (the skip
  entry — ``next_geq`` binary-searches these without touching the bytes)
  and the **maximum term frequency** (the representation-level impact
  bound; the epoch-exact per-model bounds of :mod:`repro.irs.topk` are
  derived from one decode sweep and cached);
* positions live in a *separate* varint stream with per-block offsets, so
  the scoring path never decodes a position — only proximity windows,
  passages and merges pay for them.

A block decodes independently of every other block: the first gap of block
``b`` is relative to block ``b-1``'s last document id.  The mutable
memtable keeps the dict form; both forms (and
:class:`~repro.irs.segments.view.MergedIndexView`) expose the same
:class:`PostingsCursor` surface, so scoring is representation-agnostic.
"""

from __future__ import annotations

from bisect import bisect_left
from array import array
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.irs.compression import vbyte_decode_stream, vbyte_encode
from repro.irs.inverted_index import Posting

#: Documents per block.  128 keeps skip granularity fine enough for top-k
#: pruning while the metadata overhead stays at ~3 ints per 128 postings.
BLOCK_SIZE = 128

#: Cursor exhaustion sentinel: larger than any real document id, so
#: ``min(cursor.current_doc() ...)`` needs no special casing.
CURSOR_DONE = 1 << 62


class CompactPostings:
    """One term's postings in compact block form (immutable).

    Build through :class:`CompactPostingsBuilder`; read through
    :meth:`cursor`, :meth:`iter_entries`, or the point lookups.
    """

    __slots__ = (
        "doc_count",
        "collection_frequency",
        "_data",
        "_offsets",
        "_last_docs",
        "_max_tfs",
        "_pos_data",
        "_pos_offsets",
    )

    def __init__(
        self,
        doc_count: int,
        collection_frequency: int,
        data: bytes,
        offsets: array,
        last_docs: array,
        max_tfs: array,
        pos_data: bytes,
        pos_offsets: array,
    ) -> None:
        self.doc_count = doc_count
        self.collection_frequency = collection_frequency
        self._data = data
        self._offsets = offsets
        self._last_docs = last_docs
        self._max_tfs = max_tfs
        self._pos_data = pos_data
        self._pos_offsets = pos_offsets

    # -- block metadata (no decoding) --------------------------------------

    @property
    def block_count(self) -> int:
        return len(self._last_docs)

    def block_doc_count(self, block: int) -> int:
        if block < self.block_count - 1:
            return BLOCK_SIZE
        return self.doc_count - block * BLOCK_SIZE

    def block_last_doc(self, block: int) -> int:
        """The skip entry: largest doc id inside ``block``."""
        return self._last_docs[block]

    def block_max_tf(self, block: int) -> int:
        """Largest term frequency inside ``block`` (impact upper bound)."""
        return self._max_tfs[block]

    @property
    def max_tf(self) -> int:
        return max(self._max_tfs) if self._max_tfs else 0

    @property
    def postings_bytes(self) -> int:
        """Bytes of the representation (streams + block metadata)."""
        return (
            len(self._data)
            + len(self._pos_data)
            + self._offsets.itemsize * len(self._offsets)
            + self._last_docs.itemsize * len(self._last_docs)
            + self._max_tfs.itemsize * len(self._max_tfs)
            + self._pos_offsets.itemsize * len(self._pos_offsets)
        )

    # -- decoding ----------------------------------------------------------

    def decode_block(self, block: int) -> Tuple[List[int], List[int]]:
        """``(doc_ids, tfs)`` of one block; independent of other blocks."""
        count = self.block_doc_count(block)
        gaps, offset = vbyte_decode_stream(self._data, self._offsets[block], count)
        tfs, _ = vbyte_decode_stream(self._data, offset, count)
        base = self._last_docs[block - 1] if block else 0
        ids = list(accumulate(gaps, initial=base))
        del ids[0]
        return ids, tfs

    def decode_block_positions(self, block: int, tfs: List[int]) -> List[List[int]]:
        """Positions of one block's documents, aligned with ``tfs``."""
        offset = self._pos_offsets[block]
        out: List[List[int]] = []
        for tf in tfs:
            pos_gaps, offset = vbyte_decode_stream(self._pos_data, offset, tf)
            total = 0
            positions = []
            for gap in pos_gaps:
                total += gap
                positions.append(total)
            out.append(positions)
        return out

    def iter_entries(self, with_positions: bool = True) -> Iterator[tuple]:
        """Yield ``(doc_id, tf, positions-or-None)`` in doc-id order."""
        for block in range(self.block_count):
            ids, tfs = self.decode_block(block)
            if with_positions:
                positions = self.decode_block_positions(block, tfs)
                yield from zip(ids, tfs, positions)
            else:
                for doc_id, tf in zip(ids, tfs):
                    yield doc_id, tf, None

    def to_postings(self) -> List[Posting]:
        """Full-fidelity :class:`Posting` list (doc-id order)."""
        return [
            Posting(doc_id, positions)
            for doc_id, _tf, positions in self.iter_entries()
        ]

    def _find_block(self, doc_id: int) -> int:
        """Index of the block that could contain ``doc_id`` (or block_count)."""
        return bisect_left(self._last_docs, doc_id)

    def term_frequency(self, doc_id: int) -> int:
        """tf of ``doc_id`` (0 when absent); decodes at most one block."""
        block = self._find_block(doc_id)
        if block >= self.block_count:
            return 0
        ids, tfs = self.decode_block(block)
        i = bisect_left(ids, doc_id)
        if i < len(ids) and ids[i] == doc_id:
            return tfs[i]
        return 0

    def positions(self, doc_id: int) -> Optional[List[int]]:
        """Positions of ``doc_id`` (None when absent); one-block decode."""
        block = self._find_block(doc_id)
        if block >= self.block_count:
            return None
        ids, tfs = self.decode_block(block)
        i = bisect_left(ids, doc_id)
        if i >= len(ids) or ids[i] != doc_id:
            return None
        return self.decode_block_positions(block, tfs[: i + 1])[i]

    def cursor(self, live: Optional[Dict[int, object]] = None) -> "CompactCursor":
        """A :class:`PostingsCursor` over this term.

        ``live`` (a membership-testable container, typically the owning
        segment's forward map) restricts iteration to live documents —
        pass it only when the segment actually has tombstones for the
        term, mirroring ``SealedSegment.live_postings``.
        """
        return CompactCursor(self, live)


class CompactPostingsBuilder:
    """Accumulates one term's entries (ascending doc id) into compact form."""

    __slots__ = (
        "_ids",
        "_tfs",
        "_positions",
        "_chunks",
        "_pos_chunks",
        "_offsets",
        "_last_docs",
        "_max_tfs",
        "_pos_offsets",
        "_doc_count",
        "_cf",
        "_last_doc",
        "_data_len",
        "_pos_len",
    )

    def __init__(self) -> None:
        self._ids: List[int] = []
        self._tfs: List[int] = []
        self._positions: List[List[int]] = []
        self._chunks: List[bytes] = []
        self._pos_chunks: List[bytes] = []
        self._offsets = array("q", [0])
        self._last_docs = array("q")
        self._max_tfs = array("q")
        self._pos_offsets = array("q")
        self._doc_count = 0
        self._cf = 0
        self._last_doc = 0
        self._data_len = 0
        self._pos_len = 0

    def add(self, doc_id: int, positions: List[int]) -> None:
        """Append one document's occurrences; doc ids must be ascending."""
        if doc_id <= self._last_doc and self._doc_count + len(self._ids):
            raise ValueError("doc ids must be strictly ascending")
        if not positions:
            raise ValueError("a posting needs at least one position")
        self._ids.append(doc_id)
        self._tfs.append(len(positions))
        self._positions.append(positions)
        self._last_doc = doc_id
        self._cf += len(positions)
        if len(self._ids) == BLOCK_SIZE:
            self._flush()

    def _flush(self) -> None:
        if not self._ids:
            return
        base = self._last_docs[-1] if self._last_docs else 0
        encoded = bytearray()
        previous = base
        for doc_id in self._ids:
            encoded += vbyte_encode(doc_id - previous)
            previous = doc_id
        for tf in self._tfs:
            encoded += vbyte_encode(tf)
        pos_encoded = bytearray()
        for positions in self._positions:
            total = 0
            for position in positions:
                pos_encoded += vbyte_encode(position - total)
                total = position
        self._chunks.append(bytes(encoded))
        self._pos_chunks.append(bytes(pos_encoded))
        self._pos_offsets.append(self._pos_len)
        self._data_len += len(encoded)
        self._pos_len += len(pos_encoded)
        self._offsets.append(self._data_len)
        self._last_docs.append(self._ids[-1])
        self._max_tfs.append(max(self._tfs))
        self._doc_count += len(self._ids)
        self._ids = []
        self._tfs = []
        self._positions = []

    def build(self) -> CompactPostings:
        self._flush()
        return CompactPostings(
            self._doc_count,
            self._cf,
            b"".join(self._chunks),
            self._offsets,
            self._last_docs,
            self._max_tfs,
            b"".join(self._pos_chunks),
            self._pos_offsets,
        )


# ---------------------------------------------------------------------------
# Cursors
# ---------------------------------------------------------------------------

class PostingsCursor:
    """The representation-agnostic traversal protocol of one postings list.

    Implemented by :class:`CompactCursor` (block form), :class:`ListCursor`
    (the memtable's dict form) and :class:`MergedCursor` (a segment stack
    through :class:`~repro.irs.segments.view.MergedIndexView`).  Contract:

    * ``current_doc()`` — the current live doc id, or :data:`CURSOR_DONE`;
    * ``current_tf()`` — its term frequency (undefined once exhausted);
    * ``advance()`` — move to the next live doc, returning its id;
    * ``next_geq(target)`` — move to the first live doc ``>= target``
      (skip-entry search first, block decode only on a hit);
    * ``block`` / ``block_last_doc()`` / ``block_max_tf()`` — the current
      block's index, skip boundary and impact bound, readable *without*
      decoding the block;
    * ``advance_block()`` — jump past the current block without decoding
      it (the block-max skip; counted in ``blocks_skipped``).

    ``score_upper_bound`` lives one layer up: :mod:`repro.irs.topk` maps
    ``block`` through its per-model, epoch-exact bound arrays.
    """

    __slots__ = ()

    def current_doc(self) -> int:
        raise NotImplementedError

    def current_tf(self) -> int:
        raise NotImplementedError

    def advance(self) -> int:
        raise NotImplementedError

    def next_geq(self, target: int) -> int:
        raise NotImplementedError


class CompactCursor(PostingsCursor):
    """Cursor over :class:`CompactPostings`, decoding blocks lazily."""

    __slots__ = (
        "_postings",
        "_live",
        "block",
        "_i",
        "_ids",
        "_tfs",
        "_doc",
        "_touched",
        "blocks_skipped",
    )

    def __init__(
        self, postings: CompactPostings, live: Optional[Dict[int, object]]
    ) -> None:
        self._postings = postings
        self._live = live
        self.block = 0
        self._i = -1
        self._ids: Optional[List[int]] = None
        self._tfs: Optional[List[int]] = None
        self._doc = -1  # -1: not positioned yet
        self._touched = False
        self.blocks_skipped = 0

    # -- block metadata (no decode) ----------------------------------------

    @property
    def at_end(self) -> bool:
        return self.block >= self._postings.block_count

    def block_last_doc(self) -> int:
        return self._postings.block_last_doc(self.block)

    def block_max_tf(self) -> int:
        return self._postings.block_max_tf(self.block)

    @property
    def position_in_block(self) -> int:
        """Offset of the current document inside its decoded block."""
        return self._i if self._i >= 0 else 0

    def block_arrays(self) -> "tuple[List[int], List[int], int]":
        """``(doc_ids, tfs, start)`` of the current block, decoded.

        ``start`` is the cursor's offset into the arrays.  The batch
        traversal primitive of the top-k scorer: one decode, then plain
        list indexing instead of per-document cursor calls.  Live
        filtering stays the caller's job (positions are physical).
        """
        if self._ids is None:
            self._decode()
        return self._ids, self._tfs, self._i if self._i >= 0 else 0

    def mark_block_read(self) -> None:
        """Record that the current block was consumed out of band.

        The top-k scorer reads block contents from its impact cache
        instead of decoding; this keeps ``blocks_skipped`` honest (only
        blocks truly hopped over through the skip entries count).
        """
        self._touched = True

    def advance_block(self) -> bool:
        """Skip past the current block without decoding it."""
        if self.at_end:
            return False
        if self._ids is None and not self._touched:
            self.blocks_skipped += 1
        self.block += 1
        self._ids = None
        self._tfs = None
        self._i = -1
        self._doc = -1
        self._touched = False
        return not self.at_end

    # -- positioning -------------------------------------------------------

    def _decode(self) -> None:
        self._ids, self._tfs = self._postings.decode_block(self.block)

    def _settle(self) -> int:
        """From (block, i) move forward to the next live entry."""
        live = self._live
        while not self.at_end:
            if self._ids is None:
                self._decode()
            ids = self._ids
            i = self._i
            n = len(ids)
            while i < n:
                if i >= 0:
                    doc = ids[i]
                    if live is None or doc in live:
                        self._i = i
                        self._doc = doc
                        return doc
                i += 1
            self.block += 1
            self._ids = None
            self._tfs = None
            self._i = 0
        self._doc = CURSOR_DONE
        return CURSOR_DONE

    def current_doc(self) -> int:
        if self._doc == -1:
            self._i = 0 if self._i < 0 else self._i
            return self._settle()
        return self._doc

    def current_tf(self) -> int:
        if self._doc == -1:
            self.current_doc()
        return self._tfs[self._i]

    def advance(self) -> int:
        if self._doc == -1:
            self.current_doc()
        if self._doc == CURSOR_DONE:
            return CURSOR_DONE
        self._i += 1
        self._doc = -1
        return self._settle()

    def next_geq(self, target: int) -> int:
        doc = self.current_doc()
        if doc >= target:
            return doc
        postings = self._postings
        # Skip whole blocks through the metadata — no decoding.
        while not self.at_end and postings.block_last_doc(self.block) < target:
            if self._ids is None:
                self.blocks_skipped += 1
            self.block += 1
            self._ids = None
            self._tfs = None
        if self.at_end:
            self._doc = CURSOR_DONE
            return CURSOR_DONE
        if self._ids is None:
            self._decode()
            self._i = 0
        self._i = bisect_left(self._ids, target, max(self._i, 0))
        self._doc = -1
        return self._settle()


class ListCursor(PostingsCursor):
    """Cursor over a doc-id-ordered :class:`Posting` list (dict form).

    Serves the memtable and monolithic indexes.  Blocks are virtual —
    consecutive :data:`BLOCK_SIZE` runs — so the top-k scorer's block
    bookkeeping works identically over both representations.
    """

    __slots__ = ("_postings", "_i", "_touched", "blocks_skipped")

    def __init__(self, postings: List[Posting]) -> None:
        self._postings = postings
        self._i = 0
        self._touched = False
        self.blocks_skipped = 0

    @property
    def block(self) -> int:
        return self._i // BLOCK_SIZE

    @property
    def at_end(self) -> bool:
        return self._i >= len(self._postings)

    def block_last_doc(self) -> int:
        end = min((self.block + 1) * BLOCK_SIZE, len(self._postings))
        return self._postings[end - 1].doc_id

    def block_max_tf(self) -> int:
        start = self.block * BLOCK_SIZE
        end = min(start + BLOCK_SIZE, len(self._postings))
        return max(p.tf for p in self._postings[start:end])

    @property
    def position_in_block(self) -> int:
        return self._i - self.block * BLOCK_SIZE

    def block_arrays(self) -> "tuple[List[int], List[int], int]":
        """``(doc_ids, tfs, start)`` of the current (virtual) block."""
        begin = self.block * BLOCK_SIZE
        end = min(begin + BLOCK_SIZE, len(self._postings))
        run = self._postings[begin:end]
        self._touched = True
        return [p.doc_id for p in run], [p.tf for p in run], self._i - begin

    def mark_block_read(self) -> None:
        """See :meth:`CompactCursor.mark_block_read`."""
        self._touched = True

    def advance_block(self) -> bool:
        if not self._touched:
            self.blocks_skipped += 1
        self._touched = False
        self._i = (self.block + 1) * BLOCK_SIZE
        return not self.at_end

    def current_doc(self) -> int:
        if self.at_end:
            return CURSOR_DONE
        return self._postings[self._i].doc_id

    def current_tf(self) -> int:
        return self._postings[self._i].tf

    def advance(self) -> int:
        self._i += 1
        return self.current_doc()

    def next_geq(self, target: int) -> int:
        postings = self._postings
        i = self._i
        n = len(postings)
        if i < n and postings[i].doc_id >= target:
            return postings[i].doc_id
        lo, hi = i, n
        while lo < hi:
            mid = (lo + hi) // 2
            if postings[mid].doc_id < target:
                lo = mid + 1
            else:
                hi = mid
        self._i = lo
        return self.current_doc()


class MergedCursor(PostingsCursor):
    """Doc-id-ordered union of several cursors (one per segment).

    Completes the :class:`PostingsCursor` surface for
    :class:`~repro.irs.segments.view.MergedIndexView`; the top-k scorer
    prefers per-segment traversal (tighter bounds), but callers that want
    one logical stream get it here.  Block metadata delegates to the
    sub-cursor currently holding the smallest document, which keeps
    ``block_max_tf`` an exact bound for the current block.
    """

    __slots__ = ("_cursors",)

    def __init__(self, cursors: List[PostingsCursor]) -> None:
        self._cursors = cursors

    def _leader(self) -> Optional[PostingsCursor]:
        leader = None
        best = CURSOR_DONE
        for cursor in self._cursors:
            doc = cursor.current_doc()
            if doc < best:
                best = doc
                leader = cursor
        return leader

    def current_doc(self) -> int:
        leader = self._leader()
        return CURSOR_DONE if leader is None else leader.current_doc()

    def current_tf(self) -> int:
        leader = self._leader()
        if leader is None:
            raise ValueError("cursor exhausted")
        return leader.current_tf()

    def advance(self) -> int:
        leader = self._leader()
        if leader is not None:
            leader.advance()
        return self.current_doc()

    def next_geq(self, target: int) -> int:
        for cursor in self._cursors:
            cursor.next_geq(target)
        return self.current_doc()

    def block_last_doc(self) -> int:
        leader = self._leader()
        if leader is None:
            return CURSOR_DONE
        return leader.block_last_doc()

    def block_max_tf(self) -> int:
        leader = self._leader()
        if leader is None:
            return 0
        return leader.block_max_tf()


# ---------------------------------------------------------------------------
# CompactIndex: the sealed segment's whole-index container
# ---------------------------------------------------------------------------

class CompactIndex:
    """Read-only index over compact per-term postings.

    Mirrors the read surface of
    :class:`~repro.irs.inverted_index.InvertedIndex` (statistics, postings,
    point lookups, payload round-trip), so sealed segments can swap the
    dict representation out from under every existing consumer.  Mutation
    methods are absent by design: sealed segments never change content —
    deletion is the segment's tombstone bookkeeping, not the index's.
    """

    __slots__ = ("_terms", "_doc_lengths", "_token_count", "_posting_count")

    def __init__(
        self,
        terms: Dict[str, CompactPostings],
        doc_lengths: Dict[int, int],
    ) -> None:
        self._terms = terms
        self._doc_lengths = doc_lengths
        self._token_count = sum(doc_lengths.values())
        self._posting_count = sum(p.doc_count for p in terms.values())

    # -- construction ------------------------------------------------------

    @classmethod
    def from_inverted(cls, index) -> "CompactIndex":
        """Convert a (memtable) :class:`InvertedIndex` at seal time."""
        terms: Dict[str, CompactPostings] = {}
        for term in index.terms():
            builder = CompactPostingsBuilder()
            for posting in index.postings(term):
                builder.add(posting.doc_id, posting.positions)
            terms[term] = builder.build()
        return cls(terms, dict(index._doc_lengths))

    @classmethod
    def from_entry_streams(
        cls,
        streams: Iterable[Tuple[str, Iterable[tuple]]],
        doc_lengths: Dict[int, int],
    ) -> "CompactIndex":
        """Build from ``(term, [(doc_id, tf, positions), ...])`` streams.

        The merge path: entries arrive in doc-id order per term and are
        encoded straight into blocks — no dict-of-Posting intermediate.
        """
        terms: Dict[str, CompactPostings] = {}
        for term, entries in streams:
            builder = CompactPostingsBuilder()
            for doc_id, _tf, positions in entries:
                builder.add(doc_id, positions)
            built = builder.build()
            if built.doc_count:
                terms[term] = built
        return cls(terms, doc_lengths)

    # -- statistics --------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Immutable content: the epoch never moves after construction."""
        return 1

    @property
    def document_count(self) -> int:
        return len(self._doc_lengths)

    @property
    def term_count(self) -> int:
        return len(self._terms)

    @property
    def posting_count(self) -> int:
        return self._posting_count

    @property
    def token_count(self) -> int:
        return self._token_count

    def document_length(self, doc_id: int) -> int:
        return self._doc_lengths[doc_id]

    @property
    def average_document_length(self) -> float:
        if not self._doc_lengths:
            return 0.0
        return self._token_count / len(self._doc_lengths)

    def document_frequency(self, term: str) -> int:
        postings = self._terms.get(term)
        return postings.doc_count if postings is not None else 0

    def collection_frequency(self, term: str) -> int:
        postings = self._terms.get(term)
        return postings.collection_frequency if postings is not None else 0

    # -- access ------------------------------------------------------------

    def compact_postings(self, term: str) -> Optional[CompactPostings]:
        """The raw block representation of one term (None when absent)."""
        return self._terms.get(term)

    def term_columns(self, term: str) -> Iterator[Tuple[List[int], List[int]]]:
        """Decoded ``(doc_ids, tfs)`` of ``term``, one pair per physical block.

        The scoring read path: the position stream is never touched and no
        :class:`Posting` is built.  Tombstones are the owning segment's
        business (see ``SealedSegment.term_columns``).
        """
        postings = self._terms.get(term)
        if postings is not None:
            for block in range(postings.block_count):
                yield postings.decode_block(block)

    @property
    def doc_lengths(self) -> Dict[int, int]:
        """doc id -> length of every physical document (read-only)."""
        return self._doc_lengths

    def postings(self, term: str) -> List[Posting]:
        """Full-fidelity decode of one term (doc-id order, not memoized).

        Per-version memoization happens one layer up, in
        :meth:`MergedIndexView.postings` — memoizing here too would grow a
        second copy of every hot term per segment.
        """
        postings = self._terms.get(term)
        if postings is None:
            return []
        return postings.to_postings()

    def term_frequency(self, term: str, doc_id: int) -> int:
        postings = self._terms.get(term)
        if postings is None:
            return 0
        return postings.term_frequency(doc_id)

    def positions(self, term: str, doc_id: int) -> Optional[List[int]]:
        postings = self._terms.get(term)
        if postings is None:
            return None
        return postings.positions(doc_id)

    def has_document(self, doc_id: int) -> bool:
        return doc_id in self._doc_lengths

    def document_ids(self) -> List[int]:
        return sorted(self._doc_lengths)

    def terms(self) -> Iterator[str]:
        return iter(self._terms)

    def document_vector(self, doc_id: int) -> Dict[str, int]:
        """term -> tf of one document (O(vocabulary); segments prefer
        their forward maps — this exists for interface completeness)."""
        vector: Dict[str, int] = {}
        for term, postings in self._terms.items():
            tf = postings.term_frequency(doc_id)
            if tf:
                vector[term] = tf
        return vector

    def forward_map(self) -> Dict[int, Dict[str, int]]:
        """doc id -> {term: tf} for every document (one decode sweep)."""
        forward: Dict[int, Dict[str, int]] = {
            doc_id: {} for doc_id in self._doc_lengths
        }
        for term, postings in self._terms.items():
            for doc_id, tf, _positions in postings.iter_entries(with_positions=False):
                forward[doc_id][term] = tf
        return forward

    # -- size accounting ---------------------------------------------------

    def postings_bytes(self) -> int:
        """Bytes of the compact representation (terms + streams + metadata)."""
        total = 0
        for term, postings in self._terms.items():
            total += len(term.encode("utf-8")) + postings.postings_bytes
        return total

    # -- persistence -------------------------------------------------------

    def to_payload(self) -> dict:
        """The same logical JSON schema as ``InvertedIndex.to_payload``.

        Persistence stays representation-neutral: old payloads load into
        compact segments and compact dumps load into old code.
        """
        return {
            "doc_lengths": {str(d): l for d, l in self._doc_lengths.items()},
            "postings": {
                term: {
                    str(doc_id): positions
                    for doc_id, _tf, positions in self._terms[term].iter_entries()
                }
                for term in self._terms
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CompactIndex":
        """Build compact form straight from a logical payload."""
        terms: Dict[str, CompactPostings] = {}
        for term, by_doc in payload["postings"].items():
            builder = CompactPostingsBuilder()
            for doc_id in sorted(int(d) for d in by_doc):
                positions = by_doc.get(doc_id, by_doc.get(str(doc_id)))
                builder.add(doc_id, list(positions))
            built = builder.build()
            if built.doc_count:
                terms[term] = built
        doc_lengths = {int(d): l for d, l in payload["doc_lengths"].items()}
        return cls(terms, doc_lengths)
