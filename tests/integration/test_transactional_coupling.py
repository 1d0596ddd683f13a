"""Database features apply to the coupling "for free" (Section 3).

The paper's decisive argument for the DBMS-as-control architecture: the
coupling is ordinary database schema, so transactions, recovery and
persistence cover COLLECTION state — buffers, pending operations, document
maps — without any extra machinery.  These tests pin that down.
"""

import pytest

from repro.core.collection import _create_collection, _get_irs_result


@pytest.fixture
def setup(mmf_system, para_collection):
    para_collection.set("update_policy", "deferred")
    return mmf_system, para_collection


class TestTransactionalCouplingState:
    def test_rollback_undoes_pending_operations(self, setup):
        system, collection = setup
        para = system.db.instances_of("PARA")[0]
        txn = system.db.begin()
        collection.send("modifyObject", para)
        assert collection.get("pending_ops")
        txn.rollback()
        # The operation log is a database attribute: rolled back with the txn.
        assert collection.get("pending_ops") == []

    def test_commit_keeps_pending_operations(self, setup):
        system, collection = setup
        para = system.db.instances_of("PARA")[0]
        with system.db.begin():
            collection.send("modifyObject", para)
        assert collection.get("pending_ops") == [["modify", str(para.oid)]]

    def test_rollback_undoes_buffer_population(self, setup):
        system, collection = setup
        txn = system.db.begin()
        _get_irs_result(collection, "telnet")
        assert collection.get("buffer")
        txn.rollback()
        assert not collection.get("buffer")

    def test_rollback_undoes_collection_creation(self, setup):
        system, _collection = setup
        txn = system.db.begin()
        fresh = _create_collection(system.db, "rollback_me", "ACCESS p FROM p IN PARA")
        txn.rollback()
        assert not system.db.object_exists(fresh.oid)
        # Note: the external IRS collection is not transactional (it lives
        # outside the DBMS) — exactly the loose-coupling boundary the paper
        # discusses; the application re-creates or drops it.
        assert system.engine.has_collection("rollback_me")

    def test_editorial_transaction_rolls_back_document_and_notification(self, setup):
        system, collection = setup
        count_before = len(system.db.instances_of("PARA"))
        txn = system.db.begin()
        para = system.loader.insert_element(system.roots[0], "PARA", "draft text")
        collection.send("insertObject", para)
        txn.rollback()
        assert len(system.db.instances_of("PARA")) == count_before
        assert collection.get("pending_ops") == []
        # A later query sees no trace of the draft.
        values = _get_irs_result(collection, "draft")
        assert values == {}

    def test_derivation_settings_transactional(self, setup):
        system, collection = setup
        txn = system.db.begin()
        collection.set("derivation", "average")
        txn.rollback()
        assert collection.get("derivation") == "maximum"
