"""OID values and allocation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.oodb.oid import OID, OIDAllocator


class TestOID:
    def test_string_round_trip(self):
        assert OID.parse(str(OID(42))) == OID(42)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            OID.parse("42")

    def test_parse_rejects_non_numeric(self):
        with pytest.raises(ValueError):
            OID.parse("OIDabc")

    @pytest.mark.parametrize(
        "text", ["OID", "OID-1", "OID1.0", "OID\u00b2", "oid1"]
    )
    def test_parse_rejects_malformed_and_negative(self, text):
        with pytest.raises(ValueError):
            OID.parse(text)

    def test_parse_fast_path_builds_an_ordinary_oid(self):
        parsed = OID.parse("OID0042")
        assert parsed == OID(42) and hash(parsed) == hash(OID(42))
        assert parsed.value == 42 and str(parsed) == "OID42"
        with pytest.raises(AttributeError):
            parsed.value = 1  # still frozen

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            OID(-1)

    def test_non_int_rejected(self):
        with pytest.raises(ValueError):
            OID("7")

    def test_ordering_follows_value(self):
        assert OID(1) < OID(2) < OID(10)

    def test_equality_and_hash(self):
        assert OID(5) == OID(5)
        assert len({OID(5), OID(5), OID(6)}) == 2

    @given(st.integers(min_value=0, max_value=10**12))
    def test_round_trip_property(self, value):
        assert OID.parse(str(OID(value))).value == value


class TestOIDAllocator:
    def test_allocations_are_distinct_and_increasing(self):
        allocator = OIDAllocator()
        oids = [allocator.allocate() for _ in range(100)]
        assert len(set(oids)) == 100
        assert oids == sorted(oids)

    def test_advance_to_skips_values(self):
        allocator = OIDAllocator()
        allocator.advance_to(50)
        assert allocator.allocate().value == 50

    def test_advance_to_never_goes_backwards(self):
        allocator = OIDAllocator()
        first = allocator.allocate()
        allocator.advance_to(0)
        assert allocator.allocate().value > first.value

    def test_high_water_mark_tracks_next(self):
        allocator = OIDAllocator(start=7)
        assert allocator.high_water_mark == 7
        allocator.allocate()
        assert allocator.high_water_mark == 8
