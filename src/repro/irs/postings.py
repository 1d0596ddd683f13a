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
* per block, the metadata columns keep the **last document id** (the skip
  entry — point lookups binary-search these without touching the bytes)
  and the **maximum term frequency** (the representation-level impact
  bound; the epoch-exact per-model bounds of :mod:`repro.irs.topk` are
  derived from one decode sweep and cached);
* positions live in a *separate* varint stream with per-block offsets, so
  the scoring path never decodes a position — only proximity windows,
  passages and merges pay for them.

A block decodes independently of every other block: the first gap of block
``b`` is relative to block ``b-1``'s last document id.

A :class:`CompactIndex` *is* its store record (docs/storage-format.md, kind
6): the payload bytes plus the columns parsed from them.  A term is an
ordinal into those shared columns — there is no per-term object — and its
doc and position streams are byte ranges of the one payload.  Seal, bulk
indexing, merge and the JSON import all feed per-term columns to one writer
(:meth:`CompactIndex.from_columns`), every index is read through one parse,
so :meth:`to_bytes` returns the record it holds and nothing converts layouts.

The mutable memtable keeps the dict form; both forms are read the same two
ways — ``term_columns`` (decoded ``(doc_ids, tfs)`` blocks, what scoring
reads) and ``postings`` (full :class:`Posting` lists with positions) — so
scoring is representation-agnostic (DESIGN.md §"Two read paths, one source
contract").
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left
from itertools import accumulate, chain
from operator import sub
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StoreCorruptionError
from repro.irs.compression import vbyte_decode_stream, vbyte_encode
from repro.irs.inverted_index import Posting

#: Documents per block.  128 keeps skip granularity fine enough for top-k
#: pruning while the metadata overhead stays at ~3 ints per 128 postings.
BLOCK_SIZE = 128

#: The record's header: document count, term count, then the byte width of
#: each of its twelve columns — two per document (id, length), six per term
#: (name length, doc_count, collection_frequency, block count, doc and
#: position stream lengths) and four per block (doc-stream offsets with one
#: leading 0 per term, last doc ids, max tfs, position-stream offsets).
_BYTES_HEADER = struct.Struct("<II12B")
_TERM_FIELDS = 6
#: Column width in bytes -> array typecode (8 bytes: signed, as in memory).
_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "q"}
#: Bytes per block-metadata entry that :meth:`CompactIndex.postings_bytes`
#: counts (the in-memory width the columns were first measured at).
_METADATA_ITEMSIZE = 8


def _pack(columns: List[list], names: List[bytes], streams: List[bytes]) -> bytes:
    """The kind-6 payload: header, columns at the narrowest width their
    largest value needs (little-endian), term names, then the streams."""
    bits = [max(column, default=0).bit_length() for column in columns]
    widths = [next(w for w in _TYPECODES if b <= 8 * w) for b in bits]
    parts = [_BYTES_HEADER.pack(len(columns[0]), len(names), *widths)]
    for column, width in zip(columns, widths):
        column = array(_TYPECODES[width], column)
        if sys.byteorder == "big":
            column.byteswap()
        parts.append(column.tobytes())
    return b"".join(parts + names + streams)


def add_posting(column: tuple, doc_id: int, positions: Sequence[int]) -> None:
    """Append one document's ascending ``positions`` to a term's ``column``:
    ``(doc_ids, tfs, gap-encoded positions, position offset per block)``."""
    ids, tfs, pos, pos_offsets = column
    if not len(ids) % BLOCK_SIZE:
        pos_offsets.append(len(pos))
    ids.append(doc_id)
    tfs.append(len(positions))
    previous = 0
    for position in positions:
        pos += vbyte_encode(position - previous)
        previous = position


class CompactIndex:
    """Read-only index over one kind-6 record.

    Answers what a sealed segment reads of its postings: the source
    contract of :mod:`repro.irs.view` (statistics, ``postings``,
    ``term_columns``) plus the ``term_frequency``/``positions`` lookups the
    view reaches through ``index_of``.  Mutation methods are absent by
    design: sealed segments never change content — deletion is the
    segment's tombstone bookkeeping, not the index's.

    Term ``t`` (ordinal ``i = _ordinals[t]``) owns blocks
    ``_first_block[i] .. _first_block[i + 1]`` of the block columns, offsets
    ``_first_block[i] + i ..`` of ``_offsets`` (one leading 0 per term), and
    the byte ranges ``_starts[2i] .. _starts[2i + 1]`` (doc stream) and
    ``_starts[2i + 1] .. _starts[2i + 2]`` (position stream) of ``_data``.
    Every decode is bounded by its own stream's end.
    """

    __slots__ = (
        "_data",
        "_doc_lengths",
        "_ordinals",
        "_df",
        "_cf",
        "_first_block",
        "_starts",
        "_offsets",
        "_last_docs",
        "_max_tfs",
        "_pos_offsets",
        "_token_count",
        "_posting_count",
    )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_inverted(cls, index) -> "CompactIndex":
        """Encode a (memtable) :class:`InvertedIndex` at seal time."""
        return cls.from_entry_streams(
            (
                (term, ((p.doc_id, p.tf, p.positions) for p in index.postings(term)))
                for term in index.terms()
            ),
            index.doc_lengths,
        )

    @classmethod
    def from_entry_streams(
        cls,
        streams: Iterable[Tuple[str, Iterable[tuple]]],
        doc_lengths: Dict[int, int],
    ) -> "CompactIndex":
        """``(term, [(doc_id, tf, positions), ...])`` streams, doc ids
        strictly ascending per term, as columns of :meth:`from_columns`:
        how seal, merge and the JSON import feed it."""

        def column(entries: Iterable[tuple]) -> tuple:
            out: tuple = ([], [], bytearray(), [])
            for doc_id, _tf, positions in entries:
                if out[0] and doc_id <= out[0][-1]:
                    raise ValueError("doc ids must be strictly ascending")
                if not positions:
                    raise ValueError("a posting needs at least one position")
                add_posting(out, doc_id, positions)
            return out

        return cls.from_columns(((term, column(e)) for term, e in streams), doc_lengths)

    @classmethod
    def from_columns(
        cls, columns: Iterable[Tuple[str, tuple]], doc_lengths: Dict[int, int]
    ) -> "CompactIndex":
        """The one writer: ``(term, column)`` pairs (:func:`add_posting`)
        encoded straight into the kind-6 payload and parsed back
        (:meth:`from_bytes`); a term with no document is left out."""
        names: List[bytes] = []
        rows: List[Tuple[int, ...]] = []
        offsets: List[int] = []
        last_docs: List[int] = []
        max_tfs: List[int] = []
        pos_offsets: List[int] = []
        streams_out: List[bytes] = []
        for term, (ids, tfs, pos, term_pos_offsets) in columns:
            if not ids:
                continue
            data = bytearray()
            offsets.append(0)
            base = 0
            for start in range(0, len(ids), BLOCK_SIZE):
                block_ids = ids[start: start + BLOCK_SIZE]
                block_tfs = tfs[start: start + BLOCK_SIZE]
                data += b"".join(map(vbyte_encode, map(sub, block_ids, [base, *block_ids[:-1]])))
                data += b"".join(map(vbyte_encode, block_tfs))
                base = block_ids[-1]
                offsets.append(len(data))
                last_docs.append(base)
                max_tfs.append(max(block_tfs))
            pos_offsets += term_pos_offsets
            name = term.encode("utf-8")
            names.append(name)
            rows.append((len(name), len(ids), sum(tfs), -(-len(ids) // BLOCK_SIZE),
                         len(data), len(pos)))
            streams_out += (bytes(data), bytes(pos))
        columns = [list(doc_lengths), list(doc_lengths.values())]
        columns += [[row[field] for row in rows] for field in range(_TERM_FIELDS)]
        columns += [offsets, last_docs, max_tfs, pos_offsets]
        return cls.from_bytes(_pack(columns, names, streams_out))

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompactIndex":
        """The one parse: columns by ``array.frombytes``, streams left in
        place; raises :class:`StoreCorruptionError` unless the declared
        lengths consume ``data`` exactly, every block count fits its
        document count and the term names are distinct UTF-8."""
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

        doc_lengths = dict(zip(column(documents), column(documents)))
        name_lens, dfs, cfs, block_counts, data_lens, pos_lens = [
            column(term_count) for _ in range(_TERM_FIELDS)
        ]
        blocks = sum(block_counts)
        name_at = cursor + (blocks + term_count) * widths[8] + blocks * sum(widths[9:])
        stream_at = name_at + sum(name_lens)
        if stream_at + sum(data_lens) + sum(pos_lens) != size or block_counts.tolist() != [
            -(-count // BLOCK_SIZE) for count in dfs
        ]:
            raise StoreCorruptionError(f"block record lengths do not add up to {size} bytes")
        index = cls.__new__(cls)
        index._offsets, index._last_docs, index._max_tfs, index._pos_offsets = [
            column(count) for count in (blocks + term_count, blocks, blocks, blocks)
        ]
        ordinals: Dict[str, int] = {}
        bounds = accumulate(name_lens, initial=name_at)
        start = next(bounds)
        for ordinal, end in enumerate(bounds):
            try:
                ordinals[data[start:end].decode("utf-8")] = ordinal
            except UnicodeDecodeError as exc:
                raise StoreCorruptionError(f"block record term name: {exc}") from None
            start = end
        if len(ordinals) != term_count:
            raise StoreCorruptionError("block record repeats a term name")
        index._data = data
        index._doc_lengths = doc_lengths
        index._ordinals = ordinals
        index._df = dfs
        index._cf = cfs
        index._first_block = array("q", accumulate(block_counts, initial=0))
        index._starts = array(
            "q", accumulate(chain.from_iterable(zip(data_lens, pos_lens)), initial=stream_at)
        )
        index._token_count = sum(doc_lengths.values())
        index._posting_count = sum(dfs)
        return index

    # -- statistics --------------------------------------------------------

    @property
    def document_count(self) -> int:
        return len(self._doc_lengths)

    @property
    def posting_count(self) -> int:
        return self._posting_count

    @property
    def token_count(self) -> int:
        return self._token_count

    def document_length(self, doc_id: int) -> int:
        return self._doc_lengths[doc_id]

    def document_frequency(self, term: str) -> int:
        ordinal = self._ordinals.get(term)
        return self._df[ordinal] if ordinal is not None else 0

    def collection_frequency(self, term: str) -> int:
        ordinal = self._ordinals.get(term)
        return self._cf[ordinal] if ordinal is not None else 0

    # -- decoding ----------------------------------------------------------

    def term_columns(self, term: str) -> Iterator[Tuple[List[int], List[int]]]:
        """Decoded ``(doc_ids, tfs)`` of ``term``, one pair per physical block.

        The scoring read path: the position stream is never touched and no
        :class:`Posting` is built.  Tombstones are the owning segment's
        business (see ``SealedSegment.term_columns``).
        """
        ordinal = self._ordinals.get(term)
        return iter(()) if ordinal is None else self._scan(ordinal, 0)

    def _scan(self, ordinal: int, skip: int) -> Iterator[Tuple[List[int], List[int]]]:
        """``(doc_ids, tfs)`` of term ``ordinal``'s blocks from ``skip`` on."""
        data, offsets, last_docs = self._data, self._offsets, self._last_docs
        start, end = self._starts[2 * ordinal], self._starts[2 * ordinal + 1]
        first = self._first_block[ordinal] + skip
        remaining = self._df[ordinal] - skip * BLOCK_SIZE
        base = last_docs[first - 1] if skip else 0
        for block in range(first, self._first_block[ordinal + 1]):
            count = remaining if remaining < BLOCK_SIZE else BLOCK_SIZE
            remaining -= count
            gaps, at = vbyte_decode_stream(data, start + offsets[block + ordinal], count, end)
            tfs, _ = vbyte_decode_stream(data, at, count, end)
            ids = list(accumulate(gaps, initial=base))
            del ids[0]
            base = last_docs[block]
            yield ids, tfs

    def _block_positions(self, ordinal: int, block: int, tfs: List[int]) -> List[List[int]]:
        """Positions of one block's documents (``block`` absolute), aligned
        with ``tfs``; reads only the term's position stream."""
        data, end = self._data, self._starts[2 * ordinal + 2]
        at = self._starts[2 * ordinal + 1] + self._pos_offsets[block]
        out: List[List[int]] = []
        for tf in tfs:
            gaps, at = vbyte_decode_stream(data, at, tf, end)
            total = 0
            positions = []
            for gap in gaps:
                total += gap
                positions.append(total)
            out.append(positions)
        return out

    def entries(self, term: str) -> Iterator[tuple]:
        """``(doc_id, tf, positions)`` of ``term`` in doc-id order."""
        ordinal = self._ordinals.get(term)
        if ordinal is None:
            return
        block = self._first_block[ordinal]
        for ids, tfs in self._scan(ordinal, 0):
            yield from zip(ids, tfs, self._block_positions(ordinal, block, tfs))
            block += 1

    def _find(self, term: str, doc_id: int) -> Optional[tuple]:
        """``(ordinal, block, tfs, i)`` locating ``doc_id`` in ``term``'s
        postings (None when absent); decodes at most one block."""
        ordinal = self._ordinals.get(term)
        if ordinal is None:
            return None
        first, stop = self._first_block[ordinal], self._first_block[ordinal + 1]
        block = bisect_left(self._last_docs, doc_id, first, stop)
        if block == stop:
            return None
        ids, tfs = next(self._scan(ordinal, block - first))
        i = bisect_left(ids, doc_id)
        if i < len(ids) and ids[i] == doc_id:
            return ordinal, block, tfs, i
        return None

    # -- access ------------------------------------------------------------

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
        return [Posting(doc_id, positions) for doc_id, _tf, positions in self.entries(term)]

    def term_frequency(self, term: str, doc_id: int) -> int:
        found = self._find(term, doc_id)
        return 0 if found is None else found[2][found[3]]

    def positions(self, term: str, doc_id: int) -> Optional[List[int]]:
        found = self._find(term, doc_id)
        if found is None:
            return None
        ordinal, block, tfs, i = found
        return self._block_positions(ordinal, block, tfs[: i + 1])[i]

    def terms(self) -> Iterator[str]:
        return iter(self._ordinals)

    def forward_map(self) -> Dict[int, Dict[str, int]]:
        """doc id -> {term: tf} for every document (one decode sweep)."""
        forward: Dict[int, Dict[str, int]] = {
            doc_id: {} for doc_id in self._doc_lengths
        }
        for term, ordinal in self._ordinals.items():
            for ids, tfs in self._scan(ordinal, 0):
                for doc_id, tf in zip(ids, tfs):
                    forward[doc_id][term] = tf
        return forward

    # -- size accounting ---------------------------------------------------

    def postings_bytes(self) -> int:
        """Bytes of the compact representation: term names, streams, and
        the block metadata at :data:`_METADATA_ITEMSIZE` bytes an entry."""
        names = sum(len(term.encode("utf-8")) for term in self._ordinals)
        streams = len(self._data) - self._starts[0]
        entries = len(self._offsets) + 3 * len(self._last_docs)
        return names + streams + _METADATA_ITEMSIZE * entries

    # -- persistence -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """A sealed segment's native record (docs/storage-format.md, kind 6):
        the payload this index was parsed from, as is."""
        return self._data

    @classmethod
    def from_payload(cls, payload: dict) -> "CompactIndex":
        """Build compact form from the JSON index schema older builds wrote
        (docs/storage-format.md, "Older JSON index schema"): every posting
        is re-encoded."""
        return cls.from_entry_streams(
            (
                (term, sorted((int(d), len(p), p) for d, p in by_doc.items()))
                for term, by_doc in payload["postings"].items()
            ),
            {int(d): l for d, l in payload["doc_lengths"].items()},
        )
