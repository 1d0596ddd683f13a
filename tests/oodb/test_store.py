"""Object store: lifecycle, extents, its image in a store file, value encoding."""

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ObjectNotFoundError
from repro.oodb.oid import OID
from repro.oodb.store import ObjectStore, decode_value, encode_value
from repro.store import SingleFileStore


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
        assert store.read(OID(1), "x", "never") == "never"

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


def commit(image, table):
    """One checkpoint of the database half alone."""
    return image.checkpoint(objects=(table, HEADER))


def reload(path):
    """A fresh table filled from the store file at ``path``."""
    table = ObjectStore()
    image = SingleFileStore(path)
    return table, image, image.load_objects(table)


def section(image):
    return image.manifest["objects"]


class TestObjectSection:
    """The database image as the ``objects`` section of a store file."""

    def test_round_trip(self, store, tmp_path):
        store.write(OID(1), "text", "hello")
        store.write(OID(1), "ref", OID(3))
        store.write(OID(2), "children", [OID(1), OID(3)])
        path = str(tmp_path / "irs.store")
        table, image, image_section = reload(path)
        assert image_section == {} and len(table) == 0
        commit(image, store)
        image.close()
        fresh, again, image_section = reload(path)
        assert {k: image_section[k] for k in HEADER} == HEADER
        assert fresh.read(OID(1), "ref") == OID(3)
        assert list(fresh.read_all(OID(1))) == ["text", "ref"]  # attribute order kept
        assert fresh.read(OID(2), "children") == [OID(1), OID(3)]
        assert fresh.extent("PARA") == {OID(1), OID(2)}
        again.close()

    def test_a_commit_writes_only_the_changed_objects(self, store, tmp_path):
        path = str(tmp_path / "irs.store")
        image = SingleFileStore(path)
        assert commit(image, store)["objects_written"] == 3
        stats = commit(image, store)
        assert (stats["objects_written"], stats["records_appended"]) == (0, 0)
        store.write(OID(2), "text", "changed")
        store.delete(OID(3))
        store.create(OID(4), "PARA", {"text": "new"})
        assert commit(image, store)["objects_written"] == 2
        assert len(section(image)["batches"]) == 2
        assert section(image)["deleted"] == [3]
        image.close()
        fresh, again, _section = reload(path)
        assert sorted(fresh.all_oids()) == [OID(1), OID(2), OID(4)]
        assert fresh.read(OID(2), "text") == "changed"
        assert fresh.read(OID(4), "text") == "new"
        assert commit(again, fresh)["objects_written"] == 0  # loaded = persisted
        again.close()

    def test_an_object_restored_after_its_deletion_was_persisted(self, store, tmp_path):
        path = str(tmp_path / "irs.store")
        image = SingleFileStore(path)
        commit(image, store)
        stored = store.delete(OID(3))
        commit(image, store)
        store.restore(OID(3), stored)  # a rolled-back delete
        commit(image, store)
        assert section(image)["deleted"] == []
        image.close()
        fresh, again, _section = reload(path)
        assert fresh.exists(OID(3))
        again.close()

    def test_batches_self_trim_once_dead_entries_outnumber_live_ones(self, tmp_path):
        table = ObjectStore()
        for number in range(100):
            table.create(OID(number), "PARA", {"n": number})
        path = str(tmp_path / "irs.store")
        image = SingleFileStore(path)
        commit(image, table)
        for rounds in range(1, 3):
            for number in range(40):
                table.write(OID(number), "n", -rounds)
            commit(image, table)
        # 180 entries for 100 live objects.  After 40 deletions and one
        # more change, 121 entries would be dead against 60 live objects,
        # so the next commit rewrites the live set instead.
        assert len(section(image)["batches"]) == 3
        for number in range(40):
            table.delete(OID(number))
        table.write(OID(50), "n", 0)
        assert commit(image, table)["objects_written"] == 60
        assert section(image)["batches"] == [section(image)["batches"][-1]]
        assert section(image)["deleted"] == []
        image.close()
        fresh, again, _section = reload(path)
        assert sorted(fresh.all_oids()) == [OID(n) for n in range(40, 100)]
        assert fresh.read(OID(50), "n") == 0
        again.close()

    def test_pack_keeps_the_live_set_alone(self, store, tmp_path):
        path = str(tmp_path / "irs.store")
        image = SingleFileStore(path)
        commit(image, store)
        for number in range(5):
            store.write(OID(1), "text", "x" * 1000 + str(number))
            commit(image, store)
        before = image.stats()  # the superseded copies sit in live batches
        assert 0 < before["dead_bytes"] and before["size_bytes"] > 5000
        image.pack()
        assert len(section(image)["batches"]) == 1
        after = image.stats()
        assert after["dead_bytes"] == 0 and after["size_bytes"] < 2000
        assert not os.path.exists(path + ".pack")
        store.write(OID(2), "text", "after the pack")
        assert commit(image, store)["objects_written"] == 1
        image.close()
        fresh, again, _section = reload(path)
        assert fresh.read(OID(1), "text") == "x" * 1000 + "4"
        assert fresh.read(OID(2), "text") == "after the pack"
        again.close()



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
