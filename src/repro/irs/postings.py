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
memtable keeps the dict form; both forms are read the same two ways —
``term_columns`` (decoded ``(doc_ids, tfs)`` blocks, what scoring reads)
and ``postings`` (full :class:`Posting` lists with positions) — so scoring
is representation-agnostic (DESIGN.md §"Two read paths, one source
contract").
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_left
from array import array
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import StoreCorruptionError
from repro.irs.compression import vbyte_decode_stream, vbyte_encode
from repro.irs.inverted_index import Posting

#: Documents per block.  128 keeps skip granularity fine enough for top-k
#: pruning while the metadata overhead stays at ~3 ints per 128 postings.
BLOCK_SIZE = 128

#: :meth:`CompactIndex.to_bytes`: its header (document count, term count,
#: then the byte width of each of its twelve columns), its per-term fields
#: (name length, doc_count, collection_frequency, block count, data and
#: position stream lengths) and the block columns it concatenates.
_BYTES_HEADER = struct.Struct("<II12B")
_TERM_FIELDS = 6
_BLOCK_COLUMNS = ("_offsets", "_last_docs", "_max_tfs", "_pos_offsets")
#: Column width in bytes -> array typecode (8 bytes: signed, as in memory).
_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "q"}


class CompactPostings:
    """One term's postings in compact block form (immutable).

    Build through :class:`CompactPostingsBuilder`; read through
    :meth:`decode_block`, :meth:`iter_entries`, or the point lookups.
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

    def iter_entries(self) -> Iterator[tuple]:
        """Yield ``(doc_id, tf, positions)`` in doc-id order."""
        for block in range(self.block_count):
            ids, tfs = self.decode_block(block)
            yield from zip(ids, tfs, self.decode_block_positions(block, tfs))

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
        :meth:`repro.irs.view.UnionIndexView.postings` — memoizing here too
        would grow a second copy of every hot term per segment.
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
            for block in range(postings.block_count):
                ids, tfs = postings.decode_block(block)
                for doc_id, tf in zip(ids, tfs):
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

    def to_bytes(self) -> bytes:
        """A sealed segment's native record (docs/storage-format.md, kind 6):
        little-endian columns, each 1, 2, 4 or 8 bytes wide as its largest
        value needs, then the term names, then each term's two streams."""
        names = [term.encode("utf-8") for term in self._terms]
        postings = list(self._terms.values())
        rows = [
            (len(name), p.doc_count, p.collection_frequency, p.block_count,
             len(p._data), len(p._pos_data))
            for name, p in zip(names, postings)
        ]
        columns = [list(self._doc_lengths), list(self._doc_lengths.values())]
        columns += [[row[field] for row in rows] for field in range(_TERM_FIELDS)]
        for attribute in _BLOCK_COLUMNS:
            columns.append(array("q"))
            for p in postings:
                columns[-1].extend(getattr(p, attribute))
        bits = [max(column, default=0).bit_length() for column in columns]
        widths = [next(w for w in _TYPECODES if b <= 8 * w) for b in bits]
        parts = [_BYTES_HEADER.pack(len(self._doc_lengths), len(names), *widths)]
        for column, width in zip(columns, widths):
            column = array(_TYPECODES[width], column)
            if sys.byteorder == "big":
                column.byteswap()
            parts.append(column.tobytes())
        streams = [stream for p in postings for stream in (p._data, p._pos_data)]
        return b"".join(parts + names + streams)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompactIndex":
        """Inverse of :meth:`to_bytes` by ``array.frombytes`` and slicing; raises
        :class:`StoreCorruptionError` unless the declared lengths consume
        ``data`` exactly and every block count fits its document count."""
        size = len(data)
        if size < _BYTES_HEADER.size:
            raise StoreCorruptionError(f"block record truncated at {size} bytes")
        documents, term_count, *widths = _BYTES_HEADER.unpack_from(data)
        cursor = _BYTES_HEADER.size
        head = cursor + documents * sum(widths[:2]) + term_count * sum(widths[2:8])
        if not set(widths) <= set(_TYPECODES) or size < head:
            raise StoreCorruptionError(f"block record header overruns its {size} bytes")
        pending = iter(widths)

        def column(count: int) -> array:
            nonlocal cursor
            width = next(pending)
            out = array(_TYPECODES[width], data[cursor: cursor + count * width])
            cursor += count * width
            if sys.byteorder == "big":
                out.byteswap()
            return out

        doc_ids = column(documents).tolist()
        doc_lengths = dict(zip(doc_ids, column(documents).tolist()))
        fields = [column(term_count).tolist() for _ in range(_TERM_FIELDS)]
        name_lens, doc_counts, _cfs, block_counts, data_lens, pos_lens = fields
        blocks = sum(block_counts)
        name_at = cursor + (blocks + term_count) * widths[8] + blocks * sum(widths[9:])
        stream_at = name_at + sum(name_lens)
        if stream_at + sum(data_lens) + sum(pos_lens) != size or block_counts != [
            -(-count // BLOCK_SIZE) for count in doc_counts
        ]:
            raise StoreCorruptionError(f"block record lengths do not add up to {size} bytes")
        offsets, last_docs, max_tfs, pos_offsets = [
            array("q", column(count)) for count in (blocks + term_count, blocks, blocks, blocks)
        ]
        terms: Dict[str, CompactPostings] = {}
        block = 0
        for index, (name_len, doc_count, cf, count, data_len, pos_len) in enumerate(
            zip(*fields)
        ):
            try:
                term = data[name_at: name_at + name_len].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise StoreCorruptionError(f"block record term name: {exc}") from None
            end, pos_at = block + count, stream_at + data_len
            terms[term] = CompactPostings(
                doc_count, cf, data[stream_at:pos_at],
                offsets[block + index: end + index + 1], last_docs[block:end],
                max_tfs[block:end], data[pos_at: pos_at + pos_len], pos_offsets[block:end],
            )
            name_at, stream_at, block = name_at + name_len, pos_at + pos_len, end
        if len(terms) != term_count:
            raise StoreCorruptionError("block record repeats a term name")
        return cls(terms, doc_lengths)

    def to_payload(self) -> dict:
        """The logical JSON schema of ``InvertedIndex.to_payload``.

        What builds before the native record stored for a sealed segment
        (:meth:`from_payload` still reads it); the store now writes
        :meth:`to_bytes`.
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
        """Build compact form from a logical payload (the JSON records and
        directories older builds wrote): every posting is re-encoded."""
        return cls.from_entry_streams(
            (
                (term, sorted((int(d), len(p), p) for d, p in by_doc.items()))
                for term, by_doc in payload["postings"].items()
            ),
            {int(d): l for d, l in payload["doc_lengths"].items()},
        )
