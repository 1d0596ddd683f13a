"""OID values and allocation."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.oodb import Database
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

    def test_parse_builds_an_ordinary_oid(self):
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


class TestOIDIsAnInt:
    """The contract: an ``int`` for hashing, equality and order; an OID by type and text."""

    def test_the_docstring_states_it(self):
        assert "OID(3) == 3" in OID.__doc__

    @given(st.integers(min_value=0, max_value=10**12))
    def test_hash_equality_and_text(self, value):
        oid = OID(value)
        assert hash(oid) == value == oid == oid.value
        assert type(oid.value) is int
        assert str(oid) == f"OID{value}" and repr(oid) == f"OID({value})"
        assert type(OID.parse(str(oid))) is OID and OID.parse(str(oid)) == oid

    def test_sort_order_is_the_int_order(self):
        oids = [OID(v) for v in (10, 2, 33, 1)]
        assert sorted(oids) == [OID(1), OID(2), OID(10), OID(33)]
        assert sorted(oids + [5]) == [1, 2, 5, 10, 33]

    def test_sets_and_dicts_hash_like_the_int(self):
        assert {OID(4): "x"}[4] == "x"
        assert {OID(4), 4} == {4}

    def test_no_instance_dict(self):
        with pytest.raises(AttributeError):
            OID(1).extra = 2

    def test_pickle_keeps_the_type(self):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps({"ref": [OID(9)]}, protocol))["ref"][0]
            assert type(back) is OID and back == OID(9)

    def test_int_and_real_attributes_reject_an_oid(self):
        db = Database()
        db.define_class("T", attributes={"i": "INT", "r": "REAL", "o": "OID"})
        obj = db.create_object("T", i=1, r=2.5, o=OID(1))
        for attr in ("i", "r"):
            with pytest.raises(SchemaError):
                obj.set(attr, OID(1))
        with pytest.raises(SchemaError):
            obj.set("o", 1)
        assert type(obj.get("o")) is OID

    @pytest.mark.parametrize("restart", ["snapshot", "wal"])
    def test_nested_oids_come_back_as_oids(self, tmp_path, restart):
        nested = {
            "list": [OID(1), 1, [OID(2)]],
            "tuple": (OID(3), 3),
            "dict": {OID(4): OID(5), 6: {"deep": OID(7)}},
            "plain": 8,
        }
        db = Database(directory=str(tmp_path))
        db.define_class("T", attributes={"v": "ANY"})
        oid = db.create_object("T", v=nested).oid
        if restart == "snapshot":
            db.close()
        else:
            db._wal.close()  # a crash: only the log is left to replay
        back = Database(directory=str(tmp_path)).read_attribute(oid, "v")
        assert back == nested

        def oids(value):
            if isinstance(value, dict):
                return [x for k, v in value.items() for x in oids(k) + oids(v)]
            if isinstance(value, (list, tuple)):
                return [x for v in value for x in oids(v)]
            return [(type(value).__name__, value)]

        assert oids(back) == oids(nested)
        assert ("OID", 7) in oids(back) and ("int", 6) in oids(back)


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
