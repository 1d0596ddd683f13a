"""DBObject handles: identity, attributes, dispatch, navigation."""

import pytest

from repro.errors import ObjectNotFoundError, SchemaError, UnknownMethodError
from repro.oodb import Database
from repro.oodb.oid import OID


@pytest.fixture
def db():
    d = Database()
    d.define_class("Node", attributes={"name": "STRING", "next": "OID", "items": "LIST"})
    d.schema.get_class("Node").add_method("greet", lambda o, who="world": f"hi {who}")
    return d


class TestIdentity:
    def test_equality_by_oid(self, db):
        obj = db.create_object("Node", name="a")
        assert obj == db.get_object(obj.oid)
        assert hash(obj) == hash(db.get_object(obj.oid))

    def test_inequality(self, db):
        a = db.create_object("Node")
        b = db.create_object("Node")
        assert a != b
        assert a != "not an object"

    def test_repr_contains_class_and_oid(self, db):
        obj = db.create_object("Node")
        assert "Node" in repr(obj) and "OID" in repr(obj)


class TestAttributes:
    def test_get_set(self, db):
        obj = db.create_object("Node")
        obj.set("name", "x")
        assert obj.get("name") == "x"

    def test_type_check_enforced(self, db):
        obj = db.create_object("Node")
        with pytest.raises(SchemaError):
            obj.set("name", 42)

    def test_undeclared_attribute_allowed(self, db):
        obj = db.create_object("Node")
        obj.set("extra", {"free": "form"})
        assert obj.get("extra") == {"free": "form"}

    def test_attributes_snapshot(self, db):
        obj = db.create_object("Node", name="x")
        snapshot = obj.attributes()
        assert snapshot["name"] == "x"
        assert "next" in snapshot  # declared attrs appear with defaults

    def test_attribute_of_deleted_object_raises(self, db):
        obj = db.create_object("Node")
        db.delete_object(obj)
        with pytest.raises(ObjectNotFoundError):
            obj.get("name")


class TestDispatch:
    def test_send_with_kwargs(self, db):
        obj = db.create_object("Node")
        assert obj.send("greet") == "hi world"
        assert obj.send("greet", who="there") == "hi there"

    def test_unknown_method_raises(self, db):
        obj = db.create_object("Node")
        with pytest.raises(UnknownMethodError):
            obj.send("nope")

    def test_responds_to(self, db):
        obj = db.create_object("Node")
        assert obj.responds_to("greet")
        assert not obj.responds_to("nope")

    def test_isa(self, db):
        db.define_class("Special", superclass="Node")
        obj = db.create_object("Special")
        assert obj.isa("Node")
        assert obj.isa("Special")
        assert not obj.isa("COLLECTION") if db.schema.has_class("COLLECTION") else True


class TestNavigation:
    def test_database_property(self, db):
        obj = db.create_object("Node")
        assert obj.database is db
