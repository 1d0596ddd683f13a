"""Object store: lifecycle, extents, snapshots, value encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ObjectNotFoundError
from repro.oodb.oid import OID
from repro.oodb.store import ObjectStore, decode_value, encode_value


@pytest.fixture
def store():
    s = ObjectStore()
    s.create(OID(1), "PARA")
    s.create(OID(2), "PARA")
    s.create(OID(3), "MMFDOC")
    return s


class TestLifecycle:
    def test_create_and_exists(self, store):
        assert store.exists(OID(1))
        assert not store.exists(OID(99))

    def test_duplicate_create_rejected(self, store):
        with pytest.raises(ValueError):
            store.create(OID(1), "PARA")

    def test_delete_removes(self, store):
        store.delete(OID(1))
        assert not store.exists(OID(1))
        with pytest.raises(ObjectNotFoundError):
            store.read(OID(1), "x")

    def test_restore_reinstates(self, store):
        store.write(OID(1), "text", "hello")
        stored = store.delete(OID(1))
        store.restore(OID(1), stored)
        assert store.read(OID(1), "text") == "hello"

    def test_len(self, store):
        assert len(store) == 3


class TestAttributes:
    def test_read_default(self, store):
        assert store.read(OID(1), "missing") is None
        assert store.read(OID(1), "missing", default=7) == 7

    def test_write_returns_previous(self, store):
        first = store.write(OID(1), "x", 1)
        second = store.write(OID(1), "x", 2)
        assert second == 1
        assert store.read(OID(1), "x") == 2
        # first is the missing sentinel; unwrite restores "never written"
        store.unwrite(OID(1), "x", first)
        assert not store.has_written(OID(1), "x")

    def test_unwrite_restores_value(self, store):
        store.write(OID(1), "x", 1)
        previous = store.write(OID(1), "x", 2)
        store.unwrite(OID(1), "x", previous)
        assert store.read(OID(1), "x") == 1

    def test_read_all_copies(self, store):
        store.write(OID(1), "x", 1)
        snapshot = store.read_all(OID(1))
        snapshot["x"] = 99
        assert store.read(OID(1), "x") == 1


class TestExtents:
    def test_extent_per_class(self, store):
        assert store.extent("PARA") == {OID(1), OID(2)}
        assert store.extent("MMFDOC") == {OID(3)}

    def test_extent_updates_on_delete(self, store):
        store.delete(OID(1))
        assert store.extent("PARA") == {OID(2)}

    def test_unknown_class_extent_empty(self, store):
        assert store.extent("NOPE") == set()


class TestSnapshots:
    def test_round_trip(self, store, tmp_path):
        store.write(OID(1), "text", "hello")
        store.write(OID(1), "ref", OID(3))
        store.write(OID(2), "children", [OID(1), OID(3)])
        path = str(tmp_path / "snap.json")
        store.snapshot(path, oid_high_water=10, schema_payload=[{"name": "PARA"}])
        fresh = ObjectStore()
        info = fresh.load_snapshot(path)
        assert info.oid_high_water == 10
        assert info.schema_payload == [{"name": "PARA"}]
        assert fresh.read(OID(1), "ref") == OID(3)
        assert fresh.read(OID(2), "children") == [OID(1), OID(3)]
        assert fresh.extent("PARA") == {OID(1), OID(2)}

    def test_file_bytes_are_those_of_the_streaming_encoder(self, store, tmp_path):
        """The snapshot is encoded in one string (the C encoder); the file
        holds byte for byte what ``json.dump`` streamed into it before."""
        import io
        import json

        store.write(OID(1), "text", "h\u00e9llo \"quoted\" \u2028")
        store.write(OID(1), "score", 0.1 + 0.2)
        store.write(OID(2), "doc_map", {"OID7": [1, 2], "OID9": []})
        store.write(OID(2), "children", [OID(1), (OID(3), None, True, -1e-7)])
        path = str(tmp_path / "snap.json")
        store.snapshot(path, oid_high_water=10, schema_payload=[{"name": "PARA"}])
        with open(path, encoding="utf-8") as fh:
            written = fh.read()
        streamed = io.StringIO()
        json.dump(json.loads(written), streamed)
        assert written == streamed.getvalue()

    def test_fixed_table_gives_fixed_bytes(self, tmp_path):
        table = ObjectStore()
        table.create(OID(2), "COLLECTION")
        table.create(OID(1), "PARA")
        table.write(OID(1), "content", "telnet")
        table.write(OID(2), "doc_map", {"OID1": [0]})
        path = str(tmp_path / "snap.json")
        table.snapshot(path, oid_high_water=3)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == (
                '{"oid_high_water": 3, "schema": [], "objects": ['
                '{"oid": 1, "class": "PARA", "attributes": {"content": "telnet"}}, '
                '{"oid": 2, "class": "COLLECTION", "attributes": '
                '{"doc_map": {"__dict__": [["OID1", [0]]]}}}]}'
            )


_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.builds(OID, st.integers(0, 10**6)),
)
_value = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.tuples(children, children),
    ),
    max_leaves=12,
)


class TestValueEncoding:
    @given(_value)
    def test_encode_decode_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_oid_encoding_shape(self):
        assert encode_value(OID(7)) == {"__oid__": 7}

    def test_nested_structures(self):
        value = {"a": [OID(1), {"b": (OID(2), 3)}]}
        assert decode_value(encode_value(value)) == value

    def test_plain_dict_passthrough(self):
        assert decode_value(encode_value({"k": 1})) == {"k": 1}
