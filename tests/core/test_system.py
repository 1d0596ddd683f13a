"""DocumentSystem facade."""

import pytest

from repro.core import DocumentSystem
from repro.errors import ValidationError
from repro.sgml.mmf import PAPER_FRAGMENT, build_document, mmf_dtd


class TestDocumentManagement:
    def test_add_document_from_text(self, system):
        dtd = mmf_dtd()
        system.register_dtd(dtd)
        root = system.add_document(PAPER_FRAGMENT, dtd=dtd)
        assert root.class_name == "MMFDOC"
        assert root.isa("IRSObject")

    def test_add_document_from_element(self, system):
        dtd = mmf_dtd()
        system.register_dtd(dtd)
        root = system.add_document(build_document("T", ["p"]), dtd=dtd)
        assert root.send("getAttributeValue", "TITLE") == "T"

    def test_validation_enforced(self, system):
        dtd = mmf_dtd()
        system.register_dtd(dtd)
        with pytest.raises(ValidationError):
            system.add_document("<MMFDOC><PARA>x</PARA></MMFDOC>", dtd=dtd)

    def test_validation_skippable(self, system):
        dtd = mmf_dtd()
        system.register_dtd(dtd)
        root = system.add_document(
            "<MMFDOC><PARA>x</PARA></MMFDOC>", dtd=dtd, validate=False
        )
        assert root.class_name == "MMFDOC"

    def test_delete_document(self, mmf_system):
        before = mmf_system.db.object_count()
        removed = mmf_system.delete_document(mmf_system.roots[0])
        assert removed > 1
        assert mmf_system.db.object_count() == before - removed

    def test_elements_inherit_irs_object(self, mmf_system):
        for cname in ("MMFDOC", "PARA", "Element"):
            assert mmf_system.db.schema.is_subclass(cname, "IRSObject")


class TestQuerying:
    def test_query_wrapper(self, mmf_system, para_collection):
        rows = mmf_system.query(
            "ACCESS p FROM p IN PARA WHERE p -> getIRSValue($c, 'telnet') > 0.45",
            {"c": para_collection},
        )
        assert rows


class TestLifecycle:
    def test_reset_counters(self, mmf_system, para_collection):
        mmf_system.session.query(para_collection, "telnet")
        mmf_system.reset_counters()
        assert mmf_system.engine.counters.queries_executed == 0
        assert mmf_system.context.counters.buffer_misses == 0

    def test_durable_round_trip(self, tmp_path):
        path = str(tmp_path)
        with DocumentSystem(directory=path) as system:
            dtd = mmf_dtd()
            system.register_dtd(dtd)
            root = system.add_document(build_document("Persist", ["www text"]), dtd=dtd)
            root_oid = root.oid
        with DocumentSystem(directory=path) as reopened:
            revived = reopened.db.get_object(root_oid)
            assert revived.get("sgml_attributes")["TITLE"] == "Persist"

    def test_context_manager_closes(self, tmp_path):
        with DocumentSystem(directory=str(tmp_path)) as system:
            pass  # exit should checkpoint without error
