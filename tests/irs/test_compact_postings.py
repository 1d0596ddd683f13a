"""Compact block postings: round-trips, block metadata, payloads and the
native byte form sealed segments are stored in."""

from __future__ import annotations

import random
import struct
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreCorruptionError
from repro.irs.inverted_index import InvertedIndex
from repro.irs.postings import BLOCK_SIZE, CompactIndex
from repro.store import blocks
from tests.legacy import index_payload


def build(entries):
    """entries: [(doc_id, positions)] ascending -> a one-term index ("t")."""
    return CompactIndex.from_entry_streams(
        [("t", [(doc_id, len(positions), positions) for doc_id, positions in entries])],
        {doc_id: len(positions) for doc_id, positions in entries},
    )


def pairs(index, term="t"):
    return [(p.doc_id, p.positions) for p in index.postings(term)]


def sample_entries(n, seed=0, gap_max=50):
    rng = random.Random(seed)
    doc = 0
    entries = []
    for _ in range(n):
        doc += rng.randint(1, gap_max)
        k = rng.randint(1, 6)
        positions = sorted(rng.sample(range(0, 500), k))
        entries.append((doc, positions))
    return entries


entry_lists = st.builds(
    sample_entries,
    st.integers(0, 3 * BLOCK_SIZE + 7),
    seed=st.integers(0, 2**16),
    gap_max=st.integers(1, 10**6),
)


class TestBuilderRoundTrip:
    def test_empty(self):
        index = build([])
        assert list(index.terms()) == []
        assert index.document_frequency("t") == 0
        assert list(index.term_columns("t")) == []
        assert len(index._max_tfs) == 0
        assert pairs(index) == []

    def test_small_round_trip(self):
        entries = [(3, [0, 4]), (9, [1]), (200, [5, 6, 7])]
        index = build(entries)
        assert index.document_frequency("t") == 3
        assert index.collection_frequency("t") == 6
        assert pairs(index) == entries
        assert [
            (d, tf) for d, tf, _ in index.entries("t")
        ] == [(3, 2), (9, 1), (200, 3)]

    @settings(max_examples=30, deadline=None)
    @given(entry_lists)
    def test_round_trip_property(self, entries):
        index = build(entries)
        assert index.document_frequency("t") == len(entries)
        assert pairs(index) == entries
        assert index.collection_frequency("t") == sum(
            len(positions) for _, positions in entries
        )

    def test_rejects_non_ascending(self):
        with pytest.raises(ValueError):
            build([(5, [0]), (5, [1])])
        with pytest.raises(ValueError):
            build([(5, [0]), (3, [1])])

    def test_rejects_empty_positions(self):
        with pytest.raises(ValueError):
            build([(1, [])])


class TestBlockMetadata:
    @pytest.fixture
    def postings(self):
        # 2.5 blocks, doc ids 2, 4, 6, ..., tf grows with doc id.
        entries = [
            (2 * (i + 1), list(range(1 + i % 7)) or [0])
            for i in range(2 * BLOCK_SIZE + BLOCK_SIZE // 2)
        ]
        return build(entries), entries

    def test_block_shape(self, postings):
        index, entries = postings
        assert [len(ids) for ids, _ in index.term_columns("t")] == [
            BLOCK_SIZE, BLOCK_SIZE, BLOCK_SIZE // 2
        ]
        # The skip entries: each block's last doc id.
        assert index._last_docs.tolist() == [
            entries[BLOCK_SIZE - 1][0], entries[2 * BLOCK_SIZE - 1][0], entries[-1][0]
        ]

    def test_block_max_tf_is_exact(self, postings):
        index, entries = postings
        assert index._max_tfs.tolist() == [
            max(len(p) for _, p in entries[b * BLOCK_SIZE: (b + 1) * BLOCK_SIZE])
            for b in range(3)
        ]

    def test_blocks_decode_independently(self, postings):
        index, entries = postings
        ids, tfs = next(index._scan(0, 1))  # no block 0 decode needed
        chunk = entries[BLOCK_SIZE : 2 * BLOCK_SIZE]
        assert ids == [d for d, _ in chunk]
        assert tfs == [len(p) for _, p in chunk]
        positions = index._block_positions(0, 1, tfs)
        assert positions == [p for _, p in chunk]

    def test_point_lookups(self, postings):
        index, entries = postings
        present = entries[BLOCK_SIZE + 3]
        assert index.term_frequency("t", present[0]) == len(present[1])
        assert index.positions("t", present[0]) == present[1]
        assert index.term_frequency("t", present[0] + 1) == 0
        assert index.positions("t", present[0] + 1) is None
        assert index.term_frequency("t", 10**9) == 0
        assert index.positions("u", present[0]) is None

    def test_compact_is_smaller_than_dict_proxy(self, postings):
        index, entries = postings
        dict_bytes = sum(8 + 8 * len(p) for _, p in entries)
        assert index.postings_bytes() < dict_bytes / 3


class TestCompactIndex:
    @pytest.fixture
    def documents(self):
        rng = random.Random(11)
        vocab = ["www", "nii", "telnet", "gopher", "archie"]
        return {doc_id: rng.choices(vocab, k=rng.randint(3, 12)) for doc_id in range(1, 40)}

    @pytest.fixture
    def inverted(self, documents):
        return build_inverted(documents)

    def test_from_inverted_preserves_statistics(self, inverted, documents):
        compact = CompactIndex.from_inverted(inverted)
        assert compact.document_count == inverted.document_count
        assert compact.token_count == inverted.token_count
        assert compact.posting_count == inverted.posting_count
        assert sorted(compact.terms()) == sorted(inverted.terms())
        for term in inverted.terms():
            assert compact.document_frequency(term) == inverted.document_frequency(term)
            assert compact.collection_frequency(term) == inverted.collection_frequency(
                term
            )
            assert [(p.doc_id, p.positions) for p in compact.postings(term)] == [
                (p.doc_id, p.positions) for p in inverted.postings(term)
            ]
        for doc_id, tokens in documents.items():
            assert compact.document_length(doc_id) == len(tokens)
            for term, tf in Counter(tokens).items():
                assert compact.term_frequency(term, doc_id) == tf

    def test_json_import_matches_the_dict_form(self, inverted):
        loaded = CompactIndex.from_payload(index_payload(inverted))
        for term in inverted.terms():
            assert [(p.doc_id, p.positions) for p in loaded.postings(term)] == [
                (p.doc_id, p.positions) for p in inverted.postings(term)
            ]
        assert loaded.document_count == inverted.document_count

    def test_forward_map_matches_vectors(self, inverted, documents):
        forward = CompactIndex.from_inverted(inverted).forward_map()
        assert forward == {doc_id: Counter(tokens) for doc_id, tokens in documents.items()}

    def test_postings_bytes_beats_dict_proxy(self, inverted):
        compact = CompactIndex.from_inverted(inverted)
        dict_proxy = 0
        for term in inverted.terms():
            dict_proxy += len(term.encode("utf-8"))
            for p in inverted.postings(term):
                dict_proxy += 8 + 8 * len(p.positions)
        assert compact.postings_bytes() < dict_proxy


# -- native byte form ------------------------------------------------------


@st.composite
def compact_indexes(draw):
    """A sealed index over unicode terms: up to three blocks per term, doc
    ids starting anywhere up to past 2**32 (which forces 64-bit columns)."""
    vocabulary = draw(st.lists(st.text(min_size=1, max_size=5), min_size=1,
                               max_size=10, unique=True))
    documents = draw(st.integers(0, 3 * BLOCK_SIZE + 9))
    doc_id = draw(st.sampled_from([1, 2**31, 2**32 - 40, 2**40]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    inverted = InvertedIndex()
    for _ in range(documents):
        inverted.add_document(
            doc_id, [rng.choice(vocabulary) for _ in range(rng.randint(1, 9))]
        )
        doc_id += rng.randint(1, 400)
    return CompactIndex.from_inverted(inverted)


def assert_same_index(loaded, source):
    assert loaded.to_bytes() == source.to_bytes()
    assert list(loaded.terms()) == list(source.terms())
    assert loaded.doc_lengths == source.doc_lengths
    assert loaded.postings_bytes() == source.postings_bytes()
    assert loaded.forward_map() == source.forward_map()
    for term in source.terms():
        assert (loaded.document_frequency(term), loaded.collection_frequency(term)) == (
            source.document_frequency(term), source.collection_frequency(term)
        )
        assert list(loaded.term_columns(term)) == list(source.term_columns(term))
        assert loaded.postings(term) == source.postings(term)
        for posting in source.postings(term):
            assert loaded.positions(term, posting.doc_id) == posting.positions


class TestNativeBytes:
    def test_empty_index(self):
        empty = CompactIndex.from_entry_streams([], {})
        loaded = CompactIndex.from_bytes(empty.to_bytes())
        assert loaded.document_count == 0 and list(loaded.terms()) == []
        assert_same_index(loaded, empty)

    @settings(max_examples=40, deadline=None)
    @given(compact_indexes())
    def test_round_trip(self, index):
        data = index.to_bytes()
        assert_same_index(CompactIndex.from_bytes(data), index)
        # Header: two u32 counts, then the doc-id column's width first.
        wide = any(doc_id > 0xFFFFFFFF for doc_id in index.doc_lengths)
        assert (data[8] == 8) == wide

    @settings(max_examples=40, deadline=None)
    @given(compact_indexes(), st.data())
    def test_truncated_or_overlong_record_is_corruption(self, index, data):
        """A payload of the wrong length fails loud even when its record's
        CRC is valid (the record was written that way)."""
        payload = index.to_bytes()
        cut = data.draw(st.integers(0, len(payload) - 1))
        extra = data.draw(st.binary(min_size=1, max_size=16))
        for bad in (payload[:cut], payload + extra):
            record = blocks.encode_record(blocks.KIND_BLOCKS, bad)
            with pytest.raises(StoreCorruptionError):
                CompactIndex.from_bytes(blocks.verify_record(record, blocks.KIND_BLOCKS))

    def test_block_count_must_fit_doc_count(self):
        index = CompactIndex.from_inverted(build_inverted({1: ["a"], 2: ["a", "b"]}))
        payload = bytearray(index.to_bytes())
        documents, terms, *widths = struct.unpack_from("<II12B", payload)
        # Term "a" (ordinal 0) of the doc_count column: 129 documents need
        # two blocks, and the record declares one.
        at = struct.calcsize("<II12B") + documents * (widths[0] + widths[1]) + terms * widths[2]
        assert (widths[3], payload[at]) == (1, 2)
        payload[at] = BLOCK_SIZE + 1
        with pytest.raises(StoreCorruptionError):
            CompactIndex.from_bytes(bytes(payload))

    def test_native_record_is_smaller_than_its_json(self):
        rng = random.Random(5)
        vocabulary = [f"term{i}" for i in range(400)]
        inverted = build_inverted({
            doc_id: [rng.choice(vocabulary) for _ in range(60)]
            for doc_id in range(1, 1025)
        })
        index = CompactIndex.from_inverted(inverted)
        assert len(index.to_bytes()) < len(blocks.encode_json({"index": index_payload(index)}))


def build_inverted(documents):
    inverted = InvertedIndex()
    for doc_id, terms in documents.items():
        inverted.add_document(doc_id, terms)
    return inverted
