"""Postings compression: variable-byte encoded, gap-compressed indexes.

[SAZ94] "optimize full text indexing by compression.  The objective is to
reduce the overhead for multiple indexes on the same data, but different
document levels, to about 30%."  This module supplies the classic machinery
they relied on: document ids and positions are delta-encoded (gaps) and the
gaps written as variable-byte integers — small gaps, which dominate in
redundant multi-level indexes because the same text repeats, cost one byte.

:func:`encode_index` writes a whole
:class:`~repro.irs.inverted_index.InvertedIndex` in the compressed binary
form (one :func:`encode_postings` stream per term, read back with
:func:`decode_postings`); :func:`compressed_size` measures it for the
GRAN/HIER benchmarks.
"""

from __future__ import annotations

from typing import Dict, List

from repro.irs.inverted_index import InvertedIndex

# ---------------------------------------------------------------------------
# Variable-byte primitives
#
# Convention: big-endian 7-bit groups with the **stop bit (MSB) set on the
# final byte** of each integer.  This is the classic stop-bit scheme of the
# [SAZ94]-era literature (Scholer et al. call it the same), *not* the
# LEB128/protobuf varint convention (little-endian groups, MSB set on every
# non-final byte).  The two are incompatible on the wire; everything in this
# repository — whole-index compression below, the block postings of
# :mod:`repro.irs.postings`, persistence payloads — uses this one scheme.
# Property-based round-trip tests in ``tests/irs/test_compression.py`` pin
# the convention down, including empty-positions and 2**60-sized gaps.
# ---------------------------------------------------------------------------

#: The encodings of 0..127, one stop byte each: most gaps and tfs.
_ONE_BYTE = [bytes((number | 0x80,)) for number in range(0x80)]


def vbyte_encode(number: int) -> bytes:
    """Encode one non-negative integer (big-endian 7-bit groups, MSB = stop)."""
    if 0 <= number < 0x80:
        return _ONE_BYTE[number]
    if number < 0:
        raise ValueError("vbyte encodes non-negative integers only")
    pieces = []
    while True:
        pieces.append(number & 0x7F)
        number >>= 7
        if number == 0:
            break
    pieces.reverse()
    encoded = bytearray(pieces)
    encoded[-1] |= 0x80  # stop bit on the final byte
    return bytes(encoded)


def vbyte_encode_sequence(numbers: List[int]) -> bytes:
    """Concatenated encoding of a sequence."""
    return b"".join(vbyte_encode(n) for n in numbers)


_LOW_SEVEN_BITS = bytes(byte & 0x7F for byte in range(256))


def vbyte_decode_stream(
    data: bytes, offset: int, count: int, end: int
) -> "tuple[List[int], int]":
    """Decode exactly ``count`` integers starting at ``offset``.

    Returns ``(values, next_offset)``.  This is the random-access primitive
    the block postings use: a block's varint stream can be decoded without
    touching (or even validating) the bytes of any other block.  ``end``
    bounds the read: an integer that would need a byte at or past it
    raises, so a decode never leaves its own stream.
    """
    # A run of single-byte integers (every stop bit set) — almost every tf
    # column and the doc gaps of frequent terms — decodes without a loop.
    stop = offset + count
    if count and stop <= end:
        chunk = data[offset:stop]
        if min(chunk) >= 0x80:
            return list(chunk.translate(_LOW_SEVEN_BITS)), stop
    values: List[int] = []
    append = values.append
    current = 0
    position = offset
    while len(values) < count:
        if position >= end:
            raise ValueError("truncated vbyte stream")
        byte = data[position]
        position += 1
        if byte & 0x80:
            append((current << 7) | (byte & 0x7F))
            current = 0
        else:
            current = (current << 7) | byte
    return values, position


def gaps(sorted_values: List[int]) -> List[int]:
    """First value, then successive differences (all >= 0)."""
    result = []
    previous = 0
    for value in sorted_values:
        result.append(value - previous)
        previous = value
    return result


def ungaps(gap_values: List[int]) -> List[int]:
    """Inverse of :func:`gaps`."""
    result = []
    total = 0
    for gap in gap_values:
        total += gap
        result.append(total)
    return result


# ---------------------------------------------------------------------------
# Whole-index encoding
# ---------------------------------------------------------------------------

def encode_postings(doc_positions: Dict[int, List[int]]) -> bytes:
    """Encode one term's postings: doc-id gaps, position counts, position gaps."""
    doc_ids = sorted(doc_positions)
    stream: List[int] = [len(doc_ids)]
    stream.extend(gaps(doc_ids))
    for doc_id in doc_ids:
        positions = sorted(doc_positions[doc_id])
        stream.append(len(positions))
        stream.extend(gaps(positions))
    return vbyte_encode_sequence(stream)


def decode_postings(data: bytes) -> Dict[int, List[int]]:
    """Inverse of :func:`encode_postings`."""
    end = len(data)
    (n_docs,), cursor = vbyte_decode_stream(data, 0, 1, end)
    doc_gaps, cursor = vbyte_decode_stream(data, cursor, n_docs, end)
    result: Dict[int, List[int]] = {}
    for doc_id in ungaps(doc_gaps):
        (n_positions,), cursor = vbyte_decode_stream(data, cursor, 1, end)
        position_gaps, cursor = vbyte_decode_stream(data, cursor, n_positions, end)
        result[doc_id] = ungaps(position_gaps)
    if cursor != end:
        raise ValueError("trailing data in postings stream")
    return result


def encode_index(index: InvertedIndex) -> Dict[str, bytes]:
    """term -> compressed postings for a whole index."""
    encoded = {}
    for term in index.terms():
        encoded[term] = encode_postings(
            {p.doc_id: p.positions for p in index.postings(term)}
        )
    return encoded


def compressed_size(index: InvertedIndex) -> int:
    """Bytes of the compressed form (terms + postings streams)."""
    total = 0
    for term, data in encode_index(index).items():
        total += len(term.encode("utf-8")) + len(data)
    return total
