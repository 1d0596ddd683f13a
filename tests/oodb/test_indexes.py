"""Attribute indexes: maintenance, probes, catalog."""

import pytest

from repro.oodb import Database
from repro.oodb.indexes import BTreeIndex, HashIndex, IndexCatalog
from repro.oodb.oid import OID


class TestBTreeIndex:
    def test_lookup(self):
        index = BTreeIndex("X", "v")
        index.insert(5, OID(1))
        index.insert(5, OID(2))
        assert index.lookup(5) == {OID(1), OID(2)}

    def test_range(self):
        index = BTreeIndex("X", "v")
        for i in range(10):
            index.insert(i, OID(i))
        assert index.range(low=7) == {OID(7), OID(8), OID(9)}
        assert index.range(high=2, include_high=False) == {OID(0), OID(1)}

    def test_none_keys_skipped(self):
        index = BTreeIndex("X", "v")
        index.insert(None, OID(1))
        assert index.entry_count == 0

    def test_bool_keys_kept_distinct_from_ints(self):
        index = BTreeIndex("X", "v")
        index.insert(True, OID(1))
        index.insert(1, OID(2))
        assert index.lookup(True) == {OID(1)}
        assert index.lookup(1) == {OID(2)}

    def test_remove(self):
        index = BTreeIndex("X", "v")
        index.insert(5, OID(1))
        index.remove(5, OID(1))
        assert index.lookup(5) == set()


class TestHashIndex:
    def test_lookup_and_remove(self):
        index = HashIndex("X", "v")
        index.insert("a", OID(1))
        index.insert("a", OID(2))
        index.remove("a", OID(1))
        assert index.lookup("a") == {OID(2)}

    def test_no_range_support(self):
        index = HashIndex("X", "v")
        assert not index.supports_range()
        with pytest.raises(NotImplementedError):
            index.range(low=1)

    def test_entry_count(self):
        index = HashIndex("X", "v")
        index.insert("a", OID(1))
        index.insert("b", OID(2))
        assert index.entry_count == 2


class TestCatalog:
    def test_create_is_idempotent(self):
        catalog = IndexCatalog()
        first = catalog.create("X", "v")
        second = catalog.create("X", "v")
        assert first is second

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            IndexCatalog().create("X", "v", kind="bitmap")

    def test_covering_finds_first_match(self):
        catalog = IndexCatalog()
        created = catalog.create("Element", "tag")
        assert catalog.covering(["PARA", "Element"], "tag") is created
        assert catalog.covering(["PARA"], "tag") is None

    def test_drop(self):
        catalog = IndexCatalog()
        catalog.create("X", "v")
        catalog.drop("X", "v")
        assert catalog.find("X", "v") is None

    def test_covers_attribute_tracks_create_and_drop(self):
        catalog = IndexCatalog()
        assert not catalog.covers_attribute("v")
        catalog.create("X", "v")
        catalog.create("Y", "v")
        assert catalog.covers_attribute("v")
        assert not catalog.covers_attribute("w")
        catalog.drop("X", "v")
        assert catalog.covers_attribute("v")
        catalog.drop("Y", "v")
        assert not catalog.covers_attribute("v")


class TestDatabaseIndexMaintenance:
    @pytest.fixture
    def db(self):
        d = Database()
        d.define_class("Base", attributes={"v": "INT"})
        d.define_class("Sub", superclass="Base")
        return d

    def test_backfill_on_create_index(self, db):
        objs = [db.create_object("Base", v=i) for i in range(5)]
        index = db.create_index("Base", "v")
        assert index.lookup(3) == {objs[3].oid}

    def test_index_covers_subclasses(self, db):
        db.create_index("Base", "v")
        sub = db.create_object("Sub", v=9)
        assert db.indexes.find("Base", "v").lookup(9) == {sub.oid}

    def test_write_updates_index(self, db):
        db.create_index("Base", "v")
        obj = db.create_object("Base", v=1)
        obj.set("v", 2)
        index = db.indexes.find("Base", "v")
        assert index.lookup(1) == set()
        assert index.lookup(2) == {obj.oid}

    def test_subclass_write_maintains_superclass_index(self, db):
        db.define_class("Leaf", superclass="Sub", attributes={"w": "INT"})
        db.create_index("Base", "v")
        leaf = db.create_object("Leaf", v=1, w=5)
        leaf.set("w", 6)
        leaf.set("v", 2)
        index = db.indexes.find("Base", "v")
        assert index.lookup(1) == set()
        assert index.lookup(2) == {leaf.oid}
        db.delete_object(leaf)
        assert index.lookup(2) == set()

    def test_delete_unindexes(self, db):
        db.create_index("Base", "v")
        obj = db.create_object("Base", v=1)
        db.delete_object(obj)
        assert db.indexes.find("Base", "v").lookup(1) == set()

    def test_query_uses_index(self, db):
        db.create_index("Base", "v")
        for i in range(20):
            db.create_object("Base", v=i)
        plan = db.explain("ACCESS x FROM x IN Base WHERE x.v = 5")
        assert plan["variables"]["x"]["index_predicates"] == ["Base.v = 5"]
