"""COLLECTION coupling methods: indexObjects, getIRSResult, findIRSValue."""

import pytest

from repro import obs
from repro.core.collection import (
    _create_collection,
    _get_irs_result,
    index_objects,
    segment_text,
)
from repro.errors import CouplingError
from repro.oodb.oid import OID


class TestCreateCollection:
    def test_creates_irs_collection(self, mmf_system):
        _create_collection(mmf_system.db, "mine", "ACCESS p FROM p IN PARA")
        assert mmf_system.engine.has_collection("mine")

    def test_duplicate_name_rejected(self, mmf_system):
        _create_collection(mmf_system.db, "mine", "")
        with pytest.raises(CouplingError):
            _create_collection(mmf_system.db, "mine", "")

    def test_arbitrary_number_of_collections(self, mmf_system):
        for i in range(5):
            _create_collection(mmf_system.db, f"coll{i}", "")
        assert len(mmf_system.engine.collection_names()) == 5


class TestIndexObjects:
    def test_indexes_spec_query_result(self, mmf_system, para_collection):
        assert para_collection.send("memberCount") == 6
        irs = mmf_system.engine.collection("collPara")
        assert len(irs) == 6

    def test_oid_metadata_attached(self, mmf_system, para_collection):
        irs = mmf_system.engine.collection("collPara")
        for document in irs.documents():
            oid = OID.parse(document.metadata["oid"])
            assert mmf_system.db.object_exists(oid)

    def test_overlapping_collections_allowed(self, mmf_system, para_collection):
        # The same paragraphs can belong to a second collection (Figure 2).
        other = _create_collection(
            mmf_system.db, "collPara2", "ACCESS p FROM p IN PARA"
        )
        index_objects(other)
        assert other.send("memberCount") == 6

    def test_spec_query_override_is_remembered(self, mmf_system):
        collection = _create_collection(mmf_system.db, "c", "")
        index_objects(collection, spec_query="ACCESS d FROM d IN MMFDOC")
        assert collection.get("spec_query") == "ACCESS d FROM d IN MMFDOC"
        assert collection.send("memberCount") == 3

    def test_missing_spec_query_rejected(self, mmf_system):
        collection = _create_collection(mmf_system.db, "c", "")
        with pytest.raises(CouplingError):
            index_objects(collection)

    def test_multi_column_spec_query_rejected(self, mmf_system):
        collection = _create_collection(
            mmf_system.db, "c", "ACCESS p, p -> length() FROM p IN PARA"
        )
        with pytest.raises(CouplingError):
            index_objects(collection)

    def test_non_irsobject_rejected(self, mmf_system):
        mmf_system.db.define_class("Alien")
        mmf_system.db.create_object("Alien")
        collection = _create_collection(mmf_system.db, "c", "ACCESS a FROM a IN Alien")
        with pytest.raises(CouplingError):
            index_objects(collection)

    def test_reindex_replaces_documents(self, mmf_system, para_collection):
        index_objects(para_collection)
        irs = mmf_system.engine.collection("collPara")
        assert len(irs) == 6  # not 12

    def test_duplicate_spec_rows_give_each_member_one_document(self, mmf_system):
        """A spec query listing every PARA once per MMFDOC still assigns each
        IRS document exactly one object (Section 4.3), however often it runs."""
        collection = _create_collection(
            mmf_system.db, "dup", "ACCESS p FROM p IN PARA, d IN MMFDOC"
        )
        irs = mmf_system.engine.collection("dup")
        for _run in range(3):
            index_objects(collection)
            assert irs.document_count == collection.send("memberCount") == 6
            assert len(irs) == 6
        fresh = _create_collection(mmf_system.db, "fresh", "ACCESS p FROM p IN PARA")
        index_objects(fresh)
        for query in ("www", "#sum(nii telnet)"):
            ranked = mmf_system.session.query(collection, query)
            assert ranked and ranked == mmf_system.session.query(fresh, query)

    def test_reindex_clears_buffer(self, mmf_system, para_collection):
        _get_irs_result(para_collection, "www")
        assert para_collection.get("buffer")
        index_objects(para_collection)
        assert para_collection.get("buffer") == {}


class TestGetIRSResult:
    def test_returns_oid_keyed_values(self, mmf_system, para_collection):
        values = _get_irs_result(para_collection, "www")
        assert values
        for oid, value in values.items():
            assert isinstance(oid, OID)
            assert 0 < value <= 1

    def test_second_call_hits_buffer(self, mmf_system, para_collection):
        with obs.instrumentation() as (_tracer, metrics):
            _get_irs_result(para_collection, "www")
            _get_irs_result(para_collection, "www")
        assert metrics.counter("irs.query.executed").value == 1

    def test_distinct_queries_distinct_entries(self, mmf_system, para_collection):
        with obs.instrumentation() as (_tracer, metrics):
            _get_irs_result(para_collection, "www")
            _get_irs_result(para_collection, "nii")
        assert metrics.counter("irs.query.executed").value == 2

    def test_model_override_used(self, mmf_system):
        collection = _create_collection(
            mmf_system.db, "bool", "ACCESS p FROM p IN PARA", model="boolean"
        )
        index_objects(collection)
        values = _get_irs_result(collection, "www")
        assert set(values.values()) == {1.0}


class TestFindIRSValue:
    def test_member_value_from_irs(self, mmf_system, para_collection):
        values = _get_irs_result(para_collection, "www")
        oid = next(iter(values))
        obj = mmf_system.db.get_object(oid)
        assert para_collection.send("findIRSValue", "www", obj) == values[oid]

    def test_member_without_match_scores_zero(self, mmf_system, para_collection):
        values = _get_irs_result(para_collection, "www")
        paras = mmf_system.db.instances_of("PARA")
        unmatched = [p for p in paras if p.oid not in values]
        assert unmatched
        assert para_collection.send("findIRSValue", "www", unmatched[0]) == 0.0

    def test_nonmember_derives(self, mmf_system, para_collection):
        doc = mmf_system.roots[1]
        with obs.instrumentation() as (_tracer, metrics):
            value = para_collection.send("findIRSValue", "www", doc)
        assert value > 0
        assert metrics.counter("coupling.derivations").value == 1

    def test_derived_value_amended_into_buffer(self, mmf_system, para_collection):
        doc = mmf_system.roots[1]
        para_collection.send("findIRSValue", "www", doc)
        with obs.instrumentation() as (_tracer, metrics):
            para_collection.send("findIRSValue", "www", doc)
        assert metrics.counter("coupling.derivations").value == 0  # buffered now


class TestContainment:
    def test_contains_object(self, mmf_system, para_collection):
        para = mmf_system.db.instances_of("PARA")[0]
        doc = mmf_system.roots[0]
        assert para_collection.send("containsObject", para)
        assert not para_collection.send("containsObject", doc)


class TestSegmentText:
    def test_no_segmentation(self):
        assert segment_text("a b c", 0) == ["a b c"]

    def test_even_split(self):
        assert segment_text("a b c d", 2) == ["a b", "c d"]

    def test_remainder_kept(self):
        assert segment_text("a b c d e", 2) == ["a b", "c d", "e"]

    def test_empty_text_single_segment(self):
        assert segment_text("", 30) == [""]

    def test_segmented_collection_multiplies_documents(self, mmf_system):
        collection = _create_collection(
            mmf_system.db, "seg", "ACCESS d FROM d IN MMFDOC", segment_words=4
        )
        index_objects(collection)
        irs = mmf_system.engine.collection("seg")
        assert len(irs) > 3  # more IRS documents than MMF documents
        doc_map = collection.get("doc_map")
        assert any(len(ids) > 1 for ids in doc_map.values())
