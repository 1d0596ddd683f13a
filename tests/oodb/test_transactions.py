"""Transactions: atomicity, rollback, context-manager behaviour."""

import pytest

from repro.errors import TransactionError
from repro.oodb import Database


@pytest.fixture
def db():
    d = Database()
    d.define_class("X", attributes={"v": "INT", "name": "STRING"})
    return d


class TestCommit:
    def test_committed_create_persists(self, db):
        with db.begin():
            obj = db.create_object("X", v=1)
        assert db.object_exists(obj.oid)
        assert obj.get("v") == 1

    def test_committed_writes_persist(self, db):
        obj = db.create_object("X", v=1)
        with db.begin():
            obj.set("v", 2)
        assert obj.get("v") == 2

    def test_commit_twice_raises(self, db):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_nested_begin_rejected(self, db):
        with db.begin():
            with pytest.raises(TransactionError):
                db.begin()


class TestRollback:
    def test_rollback_undoes_create(self, db):
        txn = db.begin()
        obj = db.create_object("X", v=1)
        txn.rollback()
        assert not db.object_exists(obj.oid)

    def test_rollback_undoes_writes(self, db):
        obj = db.create_object("X", v=1)
        txn = db.begin()
        obj.set("v", 2)
        obj.set("v", 3)
        txn.rollback()
        assert obj.get("v") == 1

    def test_rollback_undoes_delete(self, db):
        obj = db.create_object("X", v=1)
        txn = db.begin()
        db.delete_object(obj)
        txn.rollback()
        assert db.object_exists(obj.oid)
        assert obj.get("v") == 1

    def test_rollback_restores_never_written_state(self, db):
        obj = db.create_object("X")
        txn = db.begin()
        obj.set("v", 5)
        txn.rollback()
        assert obj.get("v") is None

    def test_exception_in_context_rolls_back(self, db):
        obj = db.create_object("X", v=1)
        with pytest.raises(RuntimeError):
            with db.begin():
                obj.set("v", 99)
                raise RuntimeError("boom")
        assert obj.get("v") == 1

    def test_rollback_restores_index_entries(self, db):
        db.create_index("X", "v")
        obj = db.create_object("X", v=1)
        txn = db.begin()
        obj.set("v", 2)
        txn.rollback()
        index = db.indexes.find("X", "v")
        assert obj.oid in index.lookup(1)
        assert obj.oid not in index.lookup(2)

    def test_rollback_of_create_unindexes(self, db):
        db.create_index("X", "v")
        txn = db.begin()
        obj = db.create_object("X", v=7)
        txn.rollback()
        assert db.indexes.find("X", "v").lookup(7) == set()


class TestAutocommit:
    def test_operations_outside_txn_are_durable(self, db):
        obj = db.create_object("X", v=1)
        obj.set("v", 2)
        assert obj.get("v") == 2
        assert db._current_txn() is None

    def test_wal_records_autocommitted_ops(self, tmp_path):
        db = Database(directory=str(tmp_path))
        db.define_class("X", attributes={"v": "INT", "name": "STRING"})
        db.create_object("X", v=1)
        kinds = [r.kind for r in db._wal.records()]
        assert "CREATE" in kinds
        assert kinds.count("COMMIT") >= 1
        db.close()

    def test_a_database_in_memory_logs_nothing(self, db):
        with db.begin():
            obj = db.create_object("X", v=1)
        obj.set("v", 2)
        assert db._wal is None


class TestDDLAutocommits:
    """A SCHEMA record is a transaction of its own, inside an explicit
    transaction or an autocommit group too: the class a rollback leaves
    defined is the one recovery restores."""

    def test_a_class_defined_in_a_rolled_back_transaction_survives_recovery(self, tmp_path):
        path = str(tmp_path)
        db = Database(directory=path)
        txn = db.begin()
        db.define_class("Late", attributes={"v": "INT"})
        db.add_class_attribute("Late", "w", "STRING")
        db.create_object("Late", v=1)
        txn.rollback()
        assert db.schema.has_class("Late") and db.extent_size("Late") == 0
        db._wal.close()  # a crash: no checkpoint
        db._storage.close()
        recovered = Database(directory=path)
        assert recovered.schema.has_class("Late") and recovered.extent_size("Late") == 0
        assert recovered.schema.has_attribute("Late", "w")
        recovered.close()

    def test_inside_a_group_the_schema_record_commits_alone(self, tmp_path):
        db = Database(directory=str(tmp_path))
        db.define_class("X", attributes={"v": "INT"})
        mark = db._wal.next_lsn
        with db.autocommit_group():
            db.create_object("X", v=1)
            db.define_class("Late")
            db.create_object("Late")
        records = [(r.kind, r.txn_id) for r in db._wal.records() if r.lsn >= mark]
        kinds = [kind for kind, _txn in records]
        assert kinds == ["BEGIN", "CREATE", "BEGIN", "SCHEMA", "COMMIT", "CREATE", "COMMIT"]
        group, ddl = records[0][1], records[2][1]
        assert group != ddl
        assert [txn for _kind, txn in records] == [group, group, ddl, ddl, ddl, group, group]
        db.close()


class TestIsolation:
    def test_sequential_transactions_reuse_objects(self, db):
        obj = db.create_object("X", v=1)
        with db.begin():
            obj.set("v", 2)
        with db.begin():
            obj.set("v", 3)
        assert obj.get("v") == 3

    def test_locks_released_after_commit(self, db):
        obj = db.create_object("X", v=1)
        with db.begin():
            obj.set("v", 2)
        # A fresh transaction can lock the same object immediately.
        with db.begin():
            obj.set("v", 4)
        assert obj.get("v") == 4
