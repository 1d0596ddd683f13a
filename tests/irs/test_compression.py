"""Variable-byte postings compression ([SAZ94]'s mechanism)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.irs.compression import (
    compressed_size,
    decode_postings,
    encode_index,
    encode_postings,
    gaps,
    ungaps,
    vbyte_decode_stream,
    vbyte_encode,
    vbyte_encode_sequence,
)
from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.inverted_index import InvertedIndex


class TestVByte:
    @pytest.mark.parametrize("number,expected_len", [(0, 1), (127, 1), (128, 2), (16383, 2), (16384, 3)])
    def test_encoding_lengths(self, number, expected_len):
        assert len(vbyte_encode(number)) == expected_len

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            vbyte_encode(-1)

    def test_truncated_stream_rejected(self):
        data = vbyte_encode(300)[:-1]  # strip the stop byte
        with pytest.raises(ValueError):
            vbyte_decode_stream(data + b"\x00", 0, 1, len(data) + 1)

    @given(st.lists(st.integers(0, 10**9), max_size=50))
    def test_sequence_round_trip(self, numbers):
        data = vbyte_encode_sequence(numbers)
        assert vbyte_decode_stream(data, 0, len(numbers), len(data)) == (numbers, len(data))


class TestGaps:
    def test_gaps_and_ungaps(self):
        values = [3, 7, 8, 20]
        assert gaps(values) == [3, 4, 1, 12]
        assert ungaps(gaps(values)) == values

    @given(st.lists(st.integers(0, 10**6), max_size=40, unique=True))
    def test_round_trip_property(self, values):
        ordered = sorted(values)
        assert ungaps(gaps(ordered)) == ordered


class TestPostings:
    def test_round_trip(self):
        postings = {1: [0, 5, 9], 4: [2], 9: [1, 3]}
        assert decode_postings(encode_postings(postings)) == postings

    def test_empty_postings(self):
        assert decode_postings(encode_postings({})) == {}

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.integers(1, 500),
            st.lists(st.integers(0, 300), min_size=1, max_size=10, unique=True),
            max_size=10,
        )
    )
    def test_round_trip_property(self, raw):
        postings = {doc: sorted(positions) for doc, positions in raw.items()}
        assert decode_postings(encode_postings(postings)) == postings


class TestWholeIndex:
    @pytest.fixture
    def index(self):
        idx = InvertedIndex()
        idx.add_document(1, ["www", "browser", "www", "pages"])
        idx.add_document(2, ["nii", "policy", "www"])
        idx.add_document(3, ["pages", "pages", "pages"])
        return idx

    def test_index_round_trip(self, index):
        encoded = encode_index(index)
        assert sorted(encoded) == sorted(index.terms())
        for term in index.terms():
            assert decode_postings(encoded[term]) == {
                p.doc_id: p.positions for p in index.postings(term)
            }

    def test_compression_shrinks_redundant_index(self):
        collection = IRSCollection("raw", Analyzer(stemming=False, stopwords=set()))
        for text in ("www browser www pages", "nii policy www", "pages pages pages"):
            collection.add_document(text)
        assert compressed_size(collection.index) < collection.indexed_bytes()

    def test_multi_level_redundancy_compresses_well(self, corpus_system):
        """The [SAZ94] scenario: the all-elements index compresses far
        better, relative to the document-level baseline, than raw."""
        from repro.core.granularity import all_elements, document_level

        doc_coll = document_level().build(corpus_system.db)
        all_coll = all_elements().build(corpus_system.db)
        doc_coll = corpus_system.engine.collection(doc_coll.get("irs_name"))
        all_coll = corpus_system.engine.collection(all_coll.get("irs_name"))
        doc_irs, all_irs = doc_coll.index, all_coll.index

        raw_overhead = all_coll.indexed_bytes() / doc_coll.indexed_bytes()
        compressed_overhead = compressed_size(all_irs) / compressed_size(doc_irs)
        # Compression does not remove logical redundancy across levels but
        # the repeated small gaps of the multi-level index pack tighter.
        assert compressed_size(all_irs) < all_coll.indexed_bytes() / 3
        assert compressed_overhead <= raw_overhead * 1.1


class TestStopBitConvention:
    """Pin down the wire format: big-endian 7-bit groups, MSB on the FINAL
    byte (the classic stop-bit scheme), not LEB128/protobuf varints."""

    def test_single_byte_has_stop_bit(self):
        assert vbyte_encode(0) == b"\x80"
        assert vbyte_encode(127) == b"\xff"

    def test_multi_byte_is_big_endian_with_final_stop(self):
        # 300 = 0b10_0101100 -> groups [0b10, 0b0101100], stop on the last.
        assert vbyte_encode(300) == bytes([0x02, 0x80 | 0x2C])
        # Non-final bytes never carry the MSB.
        for n in (128, 16384, 2**40, 2**60):
            encoded = vbyte_encode(n)
            assert all(b & 0x80 == 0 for b in encoded[:-1])
            assert encoded[-1] & 0x80

    def test_not_leb128(self):
        # LEB128 would encode 300 as b"\xac\x02"; our scheme must not.
        assert vbyte_encode(300) != b"\xac\x02"

    @given(st.integers(0, 2**64))
    def test_round_trip_any_width(self, n):
        data = vbyte_encode(n)
        assert vbyte_decode_stream(data, 0, 1, len(data)) == ([n], len(data))

    @given(st.lists(st.integers(0, 2**61), max_size=30))
    def test_huge_gap_sequences_round_trip(self, numbers):
        data = vbyte_encode_sequence(numbers)
        assert vbyte_decode_stream(data, 0, len(numbers), len(data)) == (numbers, len(data))

    @given(st.lists(st.integers(0, 2**61), max_size=30), st.integers(128, 2**61))
    def test_truncation_always_detected(self, numbers, last):
        # The final integer is multi-byte, so dropping its stop byte leaves
        # a pending partial integer.  (Dropping the stop byte of a
        # single-byte integer instead yields the valid shorter stream.)
        data = vbyte_encode_sequence(numbers + [last])
        with pytest.raises(ValueError):
            vbyte_decode_stream(data, 0, len(numbers) + 1, len(data) - 1)

    def test_all_zero_continuation_truncation_detected(self):
        # b"\x00" is a pending continuation byte with value 0 — the old
        # decoder silently dropped it.
        with pytest.raises(ValueError):
            vbyte_decode_stream(b"\x00", 0, 1, 1)
        with pytest.raises(ValueError):
            vbyte_decode_stream(vbyte_encode(5) + b"\x00\x00", 0, 2, 3)


class TestStreamDecode:
    @given(
        st.lists(st.integers(0, 2**61), max_size=40),
        st.lists(st.integers(0, 2**61), max_size=40),
    )
    def test_random_access_matches_full_decode(self, first, second):
        data = vbyte_encode_sequence(first) + vbyte_encode_sequence(second)
        values, offset = vbyte_decode_stream(data, 0, len(first), len(data))
        assert values == first
        rest, end = vbyte_decode_stream(data, offset, len(second), len(data))
        assert rest == second
        assert end == len(data)

    def test_count_zero_reads_nothing(self):
        assert vbyte_decode_stream(b"\xff\xff", 0, 0, 2) == ([], 0)

    def test_truncated_stream_raises(self):
        data = vbyte_encode_sequence([1, 300])
        with pytest.raises(ValueError):
            vbyte_decode_stream(data, 0, 3, len(data))
        with pytest.raises(ValueError):
            vbyte_decode_stream(data[:-1], 1, 1, len(data) - 1)


class TestEmptyPositions:
    def test_doc_with_empty_position_list_round_trips(self):
        postings = {4: [], 7: [0, 2], 9: []}
        assert decode_postings(encode_postings(postings)) == postings

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 2**40),
            st.lists(st.integers(0, 2**40), max_size=6, unique=True),
            max_size=8,
        )
    )
    def test_round_trip_with_empty_and_huge(self, raw):
        postings = {doc: sorted(positions) for doc, positions in raw.items()}
        assert decode_postings(encode_postings(postings)) == postings
