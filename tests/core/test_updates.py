"""Update propagation (Section 4.6): policies, forcing, cancellation."""

import pytest

from repro import obs
from repro.core import updates
from repro.core.collection import _create_collection, _get_irs_result, index_objects
from repro.errors import CouplingError
from tests.support import count


@pytest.fixture
def setup(mmf_system):
    """A deferred collection; the test counts in a fresh registry."""
    with obs.instrumentation():
        collection = _create_collection(
            mmf_system.db, "collPara", "ACCESS p FROM p IN PARA",
            update_policy="deferred",
        )
        index_objects(collection)
        yield mmf_system, collection


def new_para(system, root, text):
    return system.loader.insert_element(root, "PARA", text)


class TestEagerPolicy:
    def test_insert_applies_immediately(self, setup):
        system, collection = setup
        collection.set("update_policy", "eager")
        para = new_para(system, system.roots[0], "eager gopher text")
        collection.send("insertObject", para)
        assert collection.send("containsObject", para)
        values = _get_irs_result(collection, "gopher")
        assert para.oid in values

    def test_modify_applies_immediately(self, setup):
        system, collection = setup
        collection.set("update_policy", "eager")
        para = system.db.instances_of("PARA")[0]
        system.loader.update_content(para, "fresh gopher content")
        collection.send("modifyObject", para)
        assert para.oid in _get_irs_result(collection, "gopher")

    def test_delete_applies_immediately(self, setup):
        system, collection = setup
        collection.set("update_policy", "eager")
        para = system.db.instances_of("PARA")[0]
        collection.send("deleteObject", para)
        assert not collection.send("containsObject", para)

    def test_eager_invalidates_buffer(self, setup):
        system, collection = setup
        collection.set("update_policy", "eager")
        _get_irs_result(collection, "telnet")
        assert collection.get("buffer")
        para = new_para(system, system.roots[0], "x")
        collection.send("insertObject", para)
        assert collection.get("buffer") == {}


class TestDeferredPolicy:
    def test_operations_pend(self, setup):
        system, collection = setup
        para = new_para(system, system.roots[0], "pending text")
        collection.send("insertObject", para)
        assert updates.has_pending(collection)
        assert not collection.send("containsObject", para)

    def test_explicit_propagation(self, setup):
        system, collection = setup
        para = new_para(system, system.roots[0], "explicit gopher")
        collection.send("insertObject", para)
        applied = collection.send("propagateUpdates")
        assert applied == 1
        assert collection.send("containsObject", para)

    def test_query_forces_propagation(self, setup):
        system, collection = setup
        para = new_para(system, system.roots[0], "forced gopher")
        collection.send("insertObject", para)
        values = _get_irs_result(collection, "gopher")
        assert para.oid in values
        assert count("coupling.updates.forced_propagations") == 1

    def test_propagation_invalidates_buffer(self, setup):
        system, collection = setup
        _get_irs_result(collection, "telnet")
        para = new_para(system, system.roots[0], "more telnet data")
        collection.send("insertObject", para)
        collection.send("propagateUpdates")
        # rerunning the query must see the new document
        assert para.oid in _get_irs_result(collection, "telnet")

    def test_propagate_with_nothing_pending_is_noop(self, setup):
        _system, collection = setup
        assert collection.send("propagateUpdates") == 0

    def test_deleted_object_before_propagation_is_skipped(self, setup):
        system, collection = setup
        para = new_para(system, system.roots[0], "short lived")
        collection.send("insertObject", para)
        system.db.delete_object(para)  # dies before propagation
        collection.send("propagateUpdates")
        assert not collection.send("containsObject", para)


class TestCancellation:
    def test_insert_then_delete_annihilates(self, setup):
        system, collection = setup
        para = new_para(system, system.roots[0], "ephemeral")
        collection.send("insertObject", para)
        collection.send("deleteObject", para)
        assert not updates.has_pending(collection)
        assert count("coupling.updates.cancelled") == 2

    def test_modify_after_insert_subsumed(self, setup):
        system, collection = setup
        para = new_para(system, system.roots[0], "v1")
        collection.send("insertObject", para)
        system.loader.update_content(para, "v2 gopher")
        collection.send("modifyObject", para)
        assert len(collection.get("pending_ops")) == 1
        collection.send("propagateUpdates")
        # the insert picked up the latest text
        assert para.oid in _get_irs_result(collection, "gopher")

    def test_repeated_modifies_collapse(self, setup):
        system, collection = setup
        para = system.db.instances_of("PARA")[0]
        collection.send("modifyObject", para)
        collection.send("modifyObject", para)
        collection.send("modifyObject", para)
        assert len(collection.get("pending_ops")) == 1
        assert count("coupling.updates.cancelled") == 2

    def test_delete_after_modify_keeps_only_delete(self, setup):
        system, collection = setup
        para = system.db.instances_of("PARA")[0]
        collection.send("modifyObject", para)
        collection.send("deleteObject", para)
        pending = collection.get("pending_ops")
        assert pending == [["delete", str(para.oid)]]

    def test_delete_then_insert_becomes_modify(self, setup):
        system, collection = setup
        para = system.db.instances_of("PARA")[0]
        collection.send("deleteObject", para)
        collection.send("insertObject", para)
        pending = collection.get("pending_ops")
        assert pending == [["modify", str(para.oid)]]

    def test_distinct_objects_do_not_cancel(self, setup):
        system, collection = setup
        paras = system.db.instances_of("PARA")
        collection.send("modifyObject", paras[0])
        collection.send("deleteObject", paras[1])
        assert len(collection.get("pending_ops")) == 2


class TestValidation:
    def test_unknown_policy_rejected(self, setup):
        system, collection = setup
        collection.set("update_policy", "sometimes")
        para = system.db.instances_of("PARA")[0]
        with pytest.raises(CouplingError):
            collection.send("modifyObject", para)

    def test_unknown_operation_rejected(self, setup):
        system, collection = setup
        para = system.db.instances_of("PARA")[0]
        with pytest.raises(CouplingError):
            updates.record_update(collection, "upsert", para)

    def test_counters_track_logging(self, setup):
        system, collection = setup
        para = system.db.instances_of("PARA")[0]
        obs.metrics().reset()
        collection.send("modifyObject", para)
        assert count("coupling.updates.logged") == 1
