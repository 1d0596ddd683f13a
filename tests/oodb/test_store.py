"""Object store: lifecycle, extents, the object file, value encoding."""

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ObjectNotFoundError
from repro.oodb.oid import OID
from repro.oodb.store import ObjectFile, ObjectStore, decode_value, encode_value, load_snapshot


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


HEADER = {"schema": [{"name": "PARA"}], "oid_high_water": 10, "wal_mark": 5}


def reload(path):
    """A fresh table and object file read back from ``path``."""
    table = ObjectStore()
    image = ObjectFile(path)
    return table, image, image.load(table)


class TestObjectFile:
    def test_round_trip(self, store, tmp_path):
        store.write(OID(1), "text", "hello")
        store.write(OID(1), "ref", OID(3))
        store.write(OID(2), "children", [OID(1), OID(3)])
        path = str(tmp_path / "objects.store")
        image = ObjectFile(path)
        assert image.load(ObjectStore()) is None
        image.commit(store, HEADER)
        image.close()
        fresh, again, manifest = reload(path)
        assert {k: manifest[k] for k in HEADER} == HEADER
        assert fresh.read(OID(1), "ref") == OID(3)
        assert list(fresh.read_all(OID(1))) == ["text", "ref"]  # attribute order kept
        assert fresh.read(OID(2), "children") == [OID(1), OID(3)]
        assert fresh.extent("PARA") == {OID(1), OID(2)}
        again.close()

    def test_a_commit_writes_only_the_changed_objects(self, store, tmp_path):
        path = str(tmp_path / "objects.store")
        image = ObjectFile(path)
        assert image.commit(store, HEADER)["objects_written"] == 3
        assert image.commit(store, HEADER) == {
            "objects_written": 0, "objects_deleted": 0, "bytes": image.file.size - image.file.manifest_offset,
        }
        store.write(OID(2), "text", "changed")
        store.delete(OID(3))
        store.create(OID(4), "PARA", {"text": "new"})
        stats = image.commit(store, HEADER)
        assert (stats["objects_written"], stats["objects_deleted"]) == (2, 1)
        assert len(image.manifest["batches"]) == 2
        assert image.manifest["deleted"] == [3]
        image.close()
        fresh, again, _manifest = reload(path)
        assert sorted(fresh.all_oids()) == [OID(1), OID(2), OID(4)]
        assert fresh.read(OID(2), "text") == "changed"
        assert fresh.read(OID(4), "text") == "new"
        assert again.commit(fresh, HEADER)["objects_written"] == 0  # loaded = persisted
        again.close()

    def test_an_object_restored_after_its_deletion_was_persisted(self, store, tmp_path):
        path = str(tmp_path / "objects.store")
        image = ObjectFile(path)
        image.commit(store, HEADER)
        stored = store.delete(OID(3))
        image.commit(store, HEADER)
        store.restore(OID(3), stored)  # a rolled-back delete
        image.commit(store, HEADER)
        assert image.manifest["deleted"] == []
        image.close()
        fresh, again, _manifest = reload(path)
        assert fresh.exists(OID(3))
        again.close()

    def test_batches_self_trim_once_dead_entries_outnumber_live_ones(self, tmp_path):
        table = ObjectStore()
        for number in range(100):
            table.create(OID(number), "PARA", {"n": number})
        path = str(tmp_path / "objects.store")
        image = ObjectFile(path)
        image.commit(table, HEADER)
        for rounds in range(1, 3):
            for number in range(40):
                table.write(OID(number), "n", -rounds)
            image.commit(table, HEADER)
        # 180 entries for 100 live objects.  After 40 deletions and one
        # more change, 121 entries would be dead against 60 live objects,
        # so the next commit rewrites the live set instead.
        assert len(image.manifest["batches"]) == 3
        for number in range(40):
            table.delete(OID(number))
        table.write(OID(50), "n", 0)
        stats = image.commit(table, HEADER)
        assert stats["objects_written"] == 60
        assert image.manifest["batches"] == [image.manifest["batches"][-1]]
        assert image.manifest["deleted"] == []
        image.close()
        fresh, again, _manifest = reload(path)
        assert sorted(fresh.all_oids()) == [OID(n) for n in range(40, 100)]
        assert fresh.read(OID(50), "n") == 0
        again.close()

    def test_pack_keeps_the_live_set_alone(self, store, tmp_path):
        path = str(tmp_path / "objects.store")
        image = ObjectFile(path)
        image.commit(store, HEADER)
        for number in range(5):
            store.write(OID(1), "text", "x" * 1000 + str(number))
            image.commit(store, HEADER)
        before = image.stats()  # the superseded copies sit in live batches
        assert 0 < before["dead_bytes"] and before["size_bytes"] > 5000
        stats = image.pack(store, HEADER)
        assert stats["objects_written"] == 3
        after = image.stats()
        assert after["dead_bytes"] == 0 and after["size_bytes"] < 2000
        assert not os.path.exists(path + ".pack")
        store.write(OID(2), "text", "after the pack")
        assert image.commit(store, HEADER)["objects_written"] == 1
        image.close()
        fresh, again, _manifest = reload(path)
        assert fresh.read(OID(1), "text") == "x" * 1000 + "4"
        assert fresh.read(OID(2), "text") == "after the pack"
        again.close()

    def test_a_snapshot_older_builds_wrote_imports(self, tmp_path):
        path = str(tmp_path / "snap.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                '{"oid_high_water": 3, "schema": [], "objects": ['
                '{"oid": 1, "class": "PARA", "attributes": {"content": "telnet"}}, '
                '{"oid": 2, "class": "COLLECTION", "attributes": '
                '{"doc_map": {"__dict__": [["OID1", [0]]]}}}]}'
            )
        table = ObjectStore()
        assert load_snapshot(path, table) == {"oid_high_water": 3, "schema": []}
        assert table.read(OID(1), "content") == "telnet"
        assert table.read(OID(2), "doc_map") == {"OID1": [0]}
        assert table.extent("COLLECTION") == {OID(2)}


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
