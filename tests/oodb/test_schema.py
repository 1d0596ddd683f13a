"""Class schema: definitions, inheritance, member resolution."""

import pytest

from repro.errors import (
    SchemaError,
    UnknownAttributeError,
    UnknownClassError,
    UnknownMethodError,
)
from repro.oodb import Database
from repro.oodb.oid import OID
from repro.oodb.schema import ATTRIBUTE_TYPES, AttributeDefinition, Schema


@pytest.fixture
def schema():
    s = Schema()
    s.define_class("IRSObject", attributes={"default_collection": "OID"})
    s.define_class("Element", superclass="IRSObject", attributes={"tag": "STRING"})
    s.define_class("PARA", superclass="Element")
    return s


class TestClassDefinition:
    def test_duplicate_class_rejected(self, schema):
        with pytest.raises(SchemaError):
            schema.define_class("PARA")

    def test_unknown_superclass_rejected(self, schema):
        with pytest.raises(UnknownClassError):
            schema.define_class("X", superclass="NoSuchClass")

    def test_duplicate_attribute_rejected(self, schema):
        cdef = schema.get_class("PARA")
        cdef.add_attribute("n", "INT")
        with pytest.raises(SchemaError):
            cdef.add_attribute("n", "INT")

    def test_unknown_attribute_type_rejected(self):
        with pytest.raises(SchemaError):
            AttributeDefinition("x", "FLOAT32")

    def test_class_names_in_definition_order(self, schema):
        assert schema.class_names() == ["IRSObject", "Element", "PARA"]

    def test_class_and_attribute_definitions_bump_the_generation(self, schema):
        assert schema.generation == 3
        schema.add_attribute("PARA", "lang", "STRING", "en")
        assert schema.generation == 4
        assert schema.resolve_attribute("PARA", "lang").default == "en"
        with pytest.raises(SchemaError):
            schema.add_attribute("PARA", "lang")
        assert schema.generation == 4
        schema.define_class("LIST", superclass="Element")
        assert schema.generation == 5

    def test_database_ddl_bumps_the_generation(self):
        db = Database()
        db.define_class("PARA")
        before = db.schema.generation
        db.add_class_attribute("PARA", "lang", "STRING", "en")
        assert db.schema.generation == before + 1
        db.add_class_attribute("PARA", "lang", "STRING", "en")  # already there
        assert db.schema.generation == before + 1


class TestInheritance:
    def test_ancestry_most_specific_first(self, schema):
        names = [c.name for c in schema.ancestry("PARA")]
        assert names == ["PARA", "Element", "IRSObject"]

    def test_is_subclass_reflexive_and_transitive(self, schema):
        assert schema.is_subclass("PARA", "PARA")
        assert schema.is_subclass("PARA", "IRSObject")
        assert not schema.is_subclass("IRSObject", "PARA")

    def test_subclasses_lists_whole_subtree(self, schema):
        assert set(schema.subclasses("IRSObject")) == {"IRSObject", "Element", "PARA"}
        assert schema.subclasses("PARA") == ("PARA",)

    def test_subclass_defined_after_a_first_call_shows_up(self):
        db = Database()
        db.define_class("PARA")
        db.schema.get_class("PARA").add_method("length", len)
        db.create_object("PARA")
        assert db.schema.subclasses("PARA") == ("PARA",)
        assert db.schema.method_is("PARA", "length", len)
        assert len(db.extent_oids("PARA")) == 1
        db.define_class("LASTPARA", superclass="PARA")
        db.schema.get_class("LASTPARA").add_method("length", lambda obj: 0)
        last = db.create_object("LASTPARA")
        assert db.schema.subclasses("PARA") == ("PARA", "LASTPARA")
        assert not db.schema.method_is("PARA", "length", len)
        assert last.oid in db.extent_oids("PARA")
        assert db.in_extent_order("PARA", db.extent_oids("PARA"))[-1] == last.oid

    def test_a_class_rolled_back_for_a_cycle_is_not_listed(self, schema):
        assert schema.subclasses("Element") == ("Element", "PARA")
        schema.get_class("IRSObject").superclass = "PARA"
        with pytest.raises(SchemaError):
            schema.define_class("LOOP", superclass="PARA")
        schema.get_class("IRSObject").superclass = None
        assert schema.subclasses("Element") == ("Element", "PARA")
        assert not schema.has_class("LOOP")

    def test_attribute_resolution_walks_up(self, schema):
        adef = schema.resolve_attribute("PARA", "default_collection")
        assert adef.type_name == "OID"

    def test_unknown_attribute_raises(self, schema):
        with pytest.raises(UnknownAttributeError):
            schema.resolve_attribute("PARA", "no_such")

    def test_method_override_wins(self, schema):
        schema.get_class("IRSObject").add_method("getText", lambda o: "base")
        schema.get_class("PARA").add_method("getText", lambda o: "para")
        assert schema.resolve_method("PARA", "getText")(None) == "para"
        assert schema.resolve_method("Element", "getText")(None) == "base"

    def test_unknown_method_raises(self, schema):
        with pytest.raises(UnknownMethodError):
            schema.resolve_method("PARA", "noSuchMethod")

    def test_all_attributes_merges_ancestry(self, schema):
        merged = schema.all_attributes("PARA")
        assert set(merged) == {"default_collection", "tag"}


class TestTypeChecking:
    @pytest.mark.parametrize(
        "type_name,good,bad",
        [
            ("STRING", "x", 5),
            ("INT", 5, "x"),
            ("REAL", 1.5, "x"),
            ("BOOL", True, 1),
            ("OID", OID(1), 1),
            ("LIST", [1], (1,)),
            ("DICT", {"a": 1}, [1]),
        ],
    )
    def test_check_accepts_and_rejects(self, type_name, good, bad):
        adef = AttributeDefinition("a", type_name)
        assert adef.check(good)
        assert not adef.check(bad)

    def test_none_always_accepted(self):
        assert AttributeDefinition("a", "INT").check(None)

    def test_any_accepts_everything(self):
        adef = AttributeDefinition("a", "ANY")
        assert adef.check(object())

    def test_int_rejects_bool(self):
        assert not AttributeDefinition("a", "INT").check(True)

    def test_real_accepts_int(self):
        assert AttributeDefinition("a", "REAL").check(3)


#: Probe values, and the types that accept each (``None`` and ``ANY`` are
#: accepted everywhere and for everything).
_PROBES = [
    ("x", {"STRING"}),
    (5, {"INT", "REAL"}),
    (-1.5, {"REAL"}),
    (True, {"BOOL"}),
    (False, {"BOOL"}),
    (OID(3), {"OID"}),
    ([OID(3)], {"LIST"}),
    ((1,), set()),
    ({"k": 1}, {"DICT"}),
    (object(), set()),
]


class TestCheckMatrix:
    @pytest.mark.parametrize("type_name", ATTRIBUTE_TYPES)
    def test_every_type_against_every_probe(self, type_name):
        adef = AttributeDefinition("a", type_name)
        assert adef.check(None)
        for value, accepted_by in _PROBES:
            expected = type_name == "ANY" or type_name in accepted_by
            assert adef.check(value) is expected, (type_name, value)

    @pytest.mark.parametrize(
        "type_name,value",
        [("INT", True), ("INT", OID(2)), ("REAL", OID(2)), ("OID", 2), ("STRING", 5)],
    )
    def test_write_error_text(self, type_name, value):
        db = Database()
        db.define_class("Base", attributes={"a": type_name})
        db.define_class("Sub", superclass="Base")
        obj = db.create_object("Sub")
        with pytest.raises(SchemaError) as raised:
            db.write_attribute(obj.oid, "a", value)
        assert str(raised.value) == (
            f"value {value!r} does not match type {type_name} of Sub.a"
        )
