"""The kind-6 record a sealed segment is: its write side pinned to fixed
bytes, every decode bounded by its own term's streams, and an in-memory
object graph that does not grow with the vocabulary."""

from __future__ import annotations

import gc
import hashlib
import struct
import types

import pytest

from repro.irs.inverted_index import InvertedIndex
from repro.irs.postings import BLOCK_SIZE, CompactIndex
from repro.irs.segments import SealedSegment
from repro.store import blocks
from tests.legacy import index_payload

VOCABULARY = ("www", "café", "naïve", "日本語", "straße", "🙂", "gopher", "x")

#: sha256 of the record :func:`pinned_corpus` seals into.  The kind-6 byte
#: layout is a stored format: a change here breaks every existing store.
PINNED_SHA256 = "980a9cb7fa01e08945b7c36979188d21fbd758a57d14c04bb427e0fc19d84160"


def sealed(documents) -> CompactIndex:
    """The record a batch's chunk seals ``(doc_id, tokens)`` into."""
    return SealedSegment.from_documents(0, documents).index


def pinned_corpus() -> list:
    """420 documents with ids on both sides of 2**32 (so the doc-id column
    is 64-bit), unicode terms, ``www`` in every document (four blocks) and
    a few single-document terms."""
    documents = []
    for i in range(420):
        doc_id = 2**32 - 630 + 3 * i
        tokens = ["www"]
        tokens += [VOCABULARY[(i * i) % len(VOCABULARY)]] * (1 + i % 4)
        tokens.append(VOCABULARY[(3 * i + 1) % len(VOCABULARY)])
        if i % 7 == 0:
            tokens.append(f"rare{i}")
        tokens.append("www")
        documents.append((doc_id, tokens))
    return documents


class TestWriteSide:
    def test_sealed_record_bytes_are_pinned(self):
        documents = pinned_corpus()
        index = sealed(documents)
        payload = index.to_bytes()
        assert -(-index.document_frequency("www") // BLOCK_SIZE) == 4
        assert hashlib.sha256(payload).hexdigest() == PINNED_SHA256
        # The memtable's seal and the JSON import write the same record.
        inverted = InvertedIndex()
        for doc_id, tokens in documents:
            inverted.add_document(doc_id, tokens)
        assert CompactIndex.from_inverted(inverted).to_bytes() == payload
        assert CompactIndex.from_payload(index_payload(inverted)).to_bytes() == payload

    def test_parse_returns_the_record_it_read(self):
        payload = sealed(pinned_corpus()).to_bytes()
        assert CompactIndex.from_bytes(payload).to_bytes() == payload


def _term_field_offsets(payload: bytes, field: int):
    """``(offset of the first entry, width)`` of per-term column ``field``
    (0 name length, 1 doc_count, 2 cf, 3 blocks, 4 doc- and 5 position-
    stream length) in a kind-6 payload."""
    documents, term_count, *widths = struct.unpack_from("<II12B", payload)
    at = struct.calcsize("<II12B") + documents * (widths[0] + widths[1])
    at += term_count * sum(widths[2: 2 + field])
    return at, widths[2 + field]


def _move_length(payload: bytes, src: tuple, dst: tuple, k: int) -> bytes:
    """Move ``k`` bytes between two per-term length fields ``(field,
    ordinal)``: every total still adds up, so only the bounds can tell."""
    forged = bytearray(payload)
    for (field, ordinal), delta in ((src, -k), (dst, k)):
        at, width = _term_field_offsets(payload, field)
        at += ordinal * width
        value = int.from_bytes(forged[at: at + width], "little") + delta
        forged[at: at + width] = value.to_bytes(width, "little")
    # A record written that way carries a valid CRC.
    record = blocks.encode_record(blocks.KIND_BLOCKS, bytes(forged))
    return blocks.verify_record(record, blocks.KIND_BLOCKS)


def _two_terms() -> CompactIndex:
    """``a`` (three blocks, positions up to 4) precedes ``b`` in the record."""
    return sealed(
        [(doc_id, ["a"] * (1 + doc_id % 3) + ["b", "a"]) for doc_id in range(1, 3 * BLOCK_SIZE - 20)]
    )


class TestDecodeStaysInsideItsTerm:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_doc_stream_end_is_the_bound(self, k):
        """``a``'s doc stream loses its last ``k`` bytes to its position
        stream: decoding ``a``'s last block must fail rather than read them."""
        source = _two_terms()
        payload = source.to_bytes()
        assert list(source.terms()) == ["a", "b"]
        forged = CompactIndex.from_bytes(_move_length(payload, (4, 0), (5, 0), k))
        with pytest.raises(ValueError):
            list(forged.term_columns("a"))
        with pytest.raises(ValueError):
            forged.postings("a")
        last = max(source.doc_lengths)
        with pytest.raises(ValueError):
            forged.term_frequency("a", last)
        # The other term is untouched.
        assert list(forged.term_columns("b")) == list(source.term_columns("b"))

    @pytest.mark.parametrize("k", [1, 3])
    def test_position_stream_end_is_the_bound(self, k):
        """``a``'s position stream loses its last ``k`` bytes to ``b``'s doc
        stream: the last document's positions must fail to decode."""
        source = _two_terms()
        forged = CompactIndex.from_bytes(
            _move_length(source.to_bytes(), (5, 0), (4, 1), k)
        )
        last = max(source.doc_lengths)
        assert forged.term_frequency("a", last) == source.term_frequency("a", last)
        with pytest.raises(ValueError):
            forged.positions("a", last)


def _tracked_reachable(root) -> int:
    """GC-tracked objects reachable from ``root``, types and modules aside."""
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        obj = stack.pop()
        count += 1
        for ref in gc.get_referents(obj):
            if (
                id(ref) in seen
                or not gc.is_tracked(ref)
                or isinstance(ref, (type, types.ModuleType))
            ):
                continue
            seen.add(id(ref))
            stack.append(ref)
    return count


def _index_of(vocabulary: int) -> CompactIndex:
    return CompactIndex.from_entry_streams(
        ((f"t{i}", [(1, 1, [0]), (2 + i, 2, [0, 3])]) for i in range(vocabulary)),
        {doc_id: 4 for doc_id in range(1, vocabulary + 2)},
    )


def test_object_count_does_not_grow_with_the_vocabulary():
    small, large = _index_of(10), _index_of(5000)
    assert len(list(large.terms())) == 5000
    assert _tracked_reachable(small) == _tracked_reachable(large)
