"""IRSObject methods: getText, getIRSValue, collection choice (4.5.1)."""

import pytest

from repro import obs
from repro.core.collection import _create_collection, _get_irs_result, index_objects
from repro.errors import CouplingError


class TestGetText:
    def test_default_full_text(self, mmf_system, para_collection):
        doc = mmf_system.roots[0]
        assert "Telnet is a protocol" in doc.send("getText", 0)

    def test_mode_parameter_changes_representation(self, mmf_system):
        doc = mmf_system.roots[0]
        full = doc.send("getText", 0)
        own = doc.send("getText", 1)
        assert full != own

    def test_per_class_override_wins(self, mmf_system, para_collection):
        mmf_system.db.schema.get_class("PARA").add_method(
            "getText", lambda obj, mode=0: "overridden"
        )
        para = mmf_system.db.instances_of("PARA")[0]
        assert para.send("getText", 0) == "overridden"


class TestGetIRSValue:
    def test_explicit_collection_argument(self, mmf_system, para_collection):
        values = _get_irs_result(para_collection, "telnet")
        oid = next(iter(values))
        obj = mmf_system.db.get_object(oid)
        assert obj.send("getIRSValue", para_collection, "telnet") == values[oid]

    def test_collection_as_oid(self, mmf_system, para_collection):
        values = _get_irs_result(para_collection, "telnet")
        oid = next(iter(values))
        obj = mmf_system.db.get_object(oid)
        assert obj.send("getIRSValue", para_collection.oid, "telnet") == values[oid]

    def test_counts_calls(self, mmf_system, para_collection):
        obj = mmf_system.db.instances_of("PARA")[0]
        with obs.instrumentation() as (_tracer, metrics):
            obj.send("getIRSValue", para_collection, "telnet")
        assert metrics.snapshot()["counters"]["coupling.getIRSValue.calls"] == 1

    def test_missing_query_rejected(self, mmf_system, para_collection):
        obj = mmf_system.db.instances_of("PARA")[0]
        with pytest.raises(CouplingError):
            obj.send("getIRSValue", para_collection)

    def test_non_collection_rejected(self, mmf_system, para_collection):
        obj = mmf_system.db.instances_of("PARA")[0]
        with pytest.raises(CouplingError):
            obj.send("getIRSValue", obj, "telnet")


class TestCollectionChoice:
    def test_default_collection_hard_wired(self, mmf_system, para_collection):
        obj = mmf_system.db.instances_of("PARA")[0]
        obj.send("setDefaultCollection", para_collection)
        value = obj.send("getIRSValue", None, "telnet")
        assert isinstance(value, float)

    def test_query_only_shorthand(self, mmf_system, para_collection):
        obj = mmf_system.db.instances_of("PARA")[0]
        obj.send("setDefaultCollection", para_collection)
        assert isinstance(obj.send("getIRSValue", "telnet"), float)

    def test_no_collection_resolvable_raises(self, mmf_system, para_collection):
        obj = mmf_system.db.instances_of("PARA")[0]
        with pytest.raises(CouplingError):
            obj.send("getIRSValue", None, "telnet")

    def test_choose_collection_override(self, mmf_system, para_collection):
        # (3) "a sophisticated choice of the IRSObject itself"
        mmf_system.db.schema.get_class("PARA").add_method(
            "chooseCollection", lambda obj: para_collection
        )
        obj = mmf_system.db.instances_of("PARA")[0]
        assert isinstance(obj.send("getIRSValue", None, "telnet"), float)

    def test_choose_collection_beats_default(self, mmf_system, para_collection):
        other = _create_collection(
            mmf_system.db, "other", "ACCESS d FROM d IN MMFDOC", model="boolean"
        )
        index_objects(other)
        mmf_system.db.schema.get_class("MMFDOC").add_method(
            "chooseCollection", lambda obj: other
        )
        doc = mmf_system.roots[0]
        doc.send("setDefaultCollection", para_collection)
        # boolean model yields exactly 1.0 for matches: proves `other` was used
        assert doc.send("getIRSValue", None, "telnet") == 1.0


class TestDeriveIRSValue:
    def test_scheme_dispatch(self, mmf_system, para_collection):
        doc = mmf_system.roots[0]
        para_collection.set("derivation", "average")
        value = doc.send("deriveIRSValue", para_collection, "telnet")
        assert 0 <= value <= 1

    def test_unknown_scheme_raises(self, mmf_system, para_collection):
        doc = mmf_system.roots[0]
        para_collection.set("derivation", "quantum")
        with pytest.raises(CouplingError):
            doc.send("deriveIRSValue", para_collection, "telnet")

    def test_per_class_override(self, mmf_system, para_collection):
        mmf_system.db.schema.get_class("MMFDOC").add_method(
            "deriveIRSValue", lambda obj, coll, query: 0.123
        )
        doc = mmf_system.roots[0]
        assert para_collection.send("findIRSValue", "telnet", doc) == 0.123
