"""On-the-fly indexing (Section 4.3.1, alternative (3))."""

import pytest

from repro import obs
from repro.core.collection import (
    _create_collection,
    _get_irs_result,
    index_objects,
    segment_text,
)
from repro.core.transient import transient_members


@pytest.fixture
def setup(mmf_system, para_collection):
    return mmf_system, para_collection


class TestScope:
    def test_member_inside_scope_only(self, setup):
        system, collection = setup
        doc = system.roots[0]
        assert not collection.send("containsObject", doc)
        with transient_members(collection, [doc]):
            assert collection.send("containsObject", doc)
        assert not collection.send("containsObject", doc)

    def test_direct_value_inside_scope(self, setup):
        system, collection = setup
        doc = system.roots[1]  # "The Web"
        with transient_members(collection, [doc]):
            values = _get_irs_result(collection, "www")
            assert doc.oid in values
        # Outside: only derivation can answer; direct result excludes it.
        values = _get_irs_result(collection, "www")
        assert doc.oid not in values

    def test_existing_members_untouched(self, setup):
        system, collection = setup
        para = system.db.instances_of("PARA")[0]
        before = collection.send("memberCount")
        with transient_members(collection, [para]) as inserted:
            assert inserted == []
            assert collection.send("memberCount") == before
        assert collection.send("containsObject", para)

    def test_cleanup_on_exception(self, setup):
        system, collection = setup
        doc = system.roots[0]
        with pytest.raises(RuntimeError):
            with transient_members(collection, [doc]):
                raise RuntimeError("boom")
        assert not collection.send("containsObject", doc)
        # The IRS holds no orphan document for the OID.
        irs = system.engine.collection(collection.get("irs_name"))
        assert str(doc.oid) not in {d.metadata.get("oid") for d in irs.documents()}

    def test_buffer_invalidated_on_both_transitions(self, setup):
        system, collection = setup
        _get_irs_result(collection, "telnet")
        assert collection.get("buffer")
        with transient_members(collection, [system.roots[0]]):
            assert collection.get("buffer") == {}
            _get_irs_result(collection, "telnet")
            assert collection.get("buffer")
        assert collection.get("buffer") == {}


class TestMembershipPath:
    """Transient members go through the members' own change path."""

    def test_segmented_like_members_and_index_gen_moves(self, mmf_system):
        collection = _create_collection(
            mmf_system.db, "words", "ACCESS p FROM p IN PARA", segment_words=1
        )
        index_objects(collection)
        irs = mmf_system.engine.collection("words")
        doc = mmf_system.roots[1]
        pieces = segment_text(doc.send("getText", 0), 1)
        generation = collection.get("index_gen")
        with transient_members(collection, [doc]):
            doc_map = collection.get("doc_map")
            assert len(doc_map[str(doc.oid)]) == len(pieces) > 1
            assert irs.document_count == sum(map(len, doc_map.values()))
            assert collection.get("index_gen") == generation + 1
        assert collection.get("index_gen") == generation + 2
        assert str(doc.oid) not in collection.get("doc_map")
        assert str(doc.oid) not in {d.metadata.get("oid") for d in irs.documents()}


class TestCost:
    def test_transient_costs_irs_maintenance(self, setup):
        """The paper's claim: insert+delete per query is the expensive part."""
        system, collection = setup
        docs = system.roots
        with obs.instrumentation() as (_tracer, metrics):
            with transient_members(collection, docs):
                _get_irs_result(collection, "www")
        counters = metrics.snapshot()["counters"]
        inserted = counters["irs.index.additions"] + counters.get("irs.index.replacements", 0)
        removed = counters["irs.index.removals"]
        assert inserted == len(docs)
        assert removed == len(docs)

    def test_derivation_costs_nothing_in_irs_maintenance(self, setup):
        system, collection = setup
        with obs.instrumentation() as (_tracer, metrics):
            for doc in system.roots:
                doc.send("getIRSValue", collection, "www")
        counters = metrics.snapshot()["counters"]
        # Documents indexed (additions and replacements) and removed.
        assert counters.get("irs.index.additions", 0) + counters.get("irs.index.replacements", 0) == 0
        assert counters.get("irs.index.removals", 0) == 0
