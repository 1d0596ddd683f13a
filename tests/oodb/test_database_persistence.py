"""Durable databases: checkpoints, WAL replay, schema restoration."""

import json
import os
import threading

import pytest

from repro.errors import TransactionError
from repro.oodb import Database


def make_db(path):
    db = Database(directory=path)
    if not db.schema.has_class("Doc"):
        db.define_class("Doc", attributes={"title": "STRING", "n": "INT"})
    return db


class TestCheckpointRecovery:
    def test_snapshot_restores_objects(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        db.create_object("Doc", title="a", n=1)
        db.close()
        db2 = make_db(path)
        objs = db2.instances_of("Doc")
        assert [o.get("title") for o in objs] == ["a"]
        db2.close()

    def test_schema_structure_restored(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        db.close()
        db2 = Database(directory=path)
        assert db2.schema.has_class("Doc")
        assert db2.schema.resolve_attribute("Doc", "n").type_name == "INT"
        db2.close()

    def test_oids_not_reused_after_restart(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        first = db.create_object("Doc", n=1)
        db.close()
        db2 = make_db(path)
        second = db2.create_object("Doc", n=2)
        assert second.oid.value > first.oid.value
        db2.close()


class TestWALReplay:
    def test_uncheckpointed_committed_work_survives(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        db.checkpoint()
        db.create_object("Doc", title="late", n=9)
        db._wal.close()  # simulate crash: no close/checkpoint
        db2 = make_db(path)
        titles = sorted(o.get("title") for o in db2.instances_of("Doc"))
        assert titles == ["late"]
        db2.close()

    def test_aborted_transaction_not_replayed(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        txn = db.begin()
        db.create_object("Doc", title="ghost", n=1)
        txn.rollback()
        db._wal.close()
        db2 = make_db(path)
        assert db2.instances_of("Doc") == []
        db2.close()

    def test_open_transaction_not_replayed(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        db.begin()
        db.create_object("Doc", title="ghost", n=1)
        db._wal.close()  # crash with the transaction still open
        db2 = make_db(path)
        assert db2.instances_of("Doc") == []
        db2.close()

    def test_delete_replayed(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        obj = db.create_object("Doc", title="x", n=1)
        db.checkpoint()
        db.delete_object(obj)
        db._wal.close()
        db2 = make_db(path)
        assert not db2.object_exists(obj.oid)
        db2.close()

    def test_attribute_writes_replayed_in_order(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        obj = db.create_object("Doc", n=1)
        obj.set("n", 2)
        obj.set("n", 3)
        db._wal.close()
        db2 = make_db(path)
        assert db2.get_object(obj.oid).get("n") == 3
        db2.close()

    def test_oid_references_survive(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        a = db.create_object("Doc", n=1)
        b = db.create_object("Doc", n=2)
        a.set("title", "ref-holder")
        db.write_attribute(a.oid, "n", 5)
        a.set("ref", b.oid) if db.schema.has_attribute("Doc", "ref") else db.write_attribute(a.oid, "ref", b.oid)
        db._wal.close()
        db2 = make_db(path)
        assert db2.read_attribute(a.oid, "ref") == b.oid
        db2.close()

    def test_checkpoint_resets_wal(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        db.create_object("Doc", n=1)
        assert len(db._wal) > 0
        db.checkpoint()
        assert len(db._wal) == 0
        db.close()


class TestCheckpointWhileATransactionIsOpen:
    """A checkpoint would persist an open transaction's uncommitted
    writes, which then survive its rollback: checkpoint, pack and close
    refuse while one is open, on this thread or another, and write
    nothing."""

    def crash_and_reopen(self, db, path):
        db._wal.close()  # no checkpoint: recovery reads what is on disk
        db._objects.close()
        return make_db(path)

    def test_same_thread(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        box = db.create_object("Doc", title="box")
        db.checkpoint()
        size = os.path.getsize(os.path.join(path, "objects.store"))
        txn = db.begin()
        box.set("n", 1)
        for refused in (db.checkpoint, db.pack, db.close):
            with pytest.raises(TransactionError):
                refused()
        assert os.path.getsize(os.path.join(path, "objects.store")) == size
        txn.rollback()
        db2 = self.crash_and_reopen(db, path)
        assert db2.get_object(box.oid).get("n") is None
        db2.close()

    def test_another_thread(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        box = db.create_object("Doc", title="box")
        written, finish = threading.Event(), threading.Event()

        def writer():
            txn = db.begin()
            box.set("n", 1)
            written.set()
            finish.wait(5)
            txn.rollback()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert written.wait(5)
            for refused in (db.checkpoint, db.pack, db.close):
                with pytest.raises(TransactionError):
                    refused()
        finally:
            finish.set()
            thread.join(5)
        db2 = self.crash_and_reopen(db, path)
        assert db2.get_object(box.oid).get("n") is None
        db2.close()


class TestIndexRecovery:
    def test_indexes_rebuilt_and_backfilled(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        db.create_index("Doc", "n")
        for i in range(5):
            db.create_object("Doc", n=i)
        db.close()
        db2 = make_db(path)
        index = db2.indexes.find("Doc", "n")
        assert index is not None
        objs = db2.instances_of("Doc")
        assert index.lookup(3) == {o.oid for o in objs if o.get("n") == 3}
        db2.close()

    def test_rebuilt_index_covers_wal_replayed_objects(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        db.create_index("Doc", "n")
        db.checkpoint()
        late = db.create_object("Doc", n=42)  # only in the WAL
        db._wal.close()
        db2 = make_db(path)
        assert db2.indexes.find("Doc", "n").lookup(42) == {late.oid}
        db2.close()

    def test_image_with_older_index_kinds_opens(self, tmp_path, monkeypatch):
        """Older builds recorded a B-tree or hash ``kind`` per index; it is
        ignored, and both indexes answer equality and range probes."""
        path = str(tmp_path)
        db = make_db(path)
        db.create_index("Doc", "n")
        db.create_index("Doc", "title")
        docs = [db.create_object("Doc", title=f"t{i}", n=i) for i in range(6)]
        kinds = {"n": "btree", "title": "hash"}
        writer = Database._schema_payload

        def older_shape(self):
            payload = writer(self)
            for entry in payload[-1]["__indexes__"]:
                entry["kind"] = kinds[entry["attribute"]]
            return payload

        monkeypatch.setattr(Database, "_schema_payload", older_shape)
        db.close()
        monkeypatch.undo()
        db2 = make_db(path)
        recorded = db2._objects.manifest["schema"][-1]["__indexes__"]
        assert sorted(entry["kind"] for entry in recorded) == ["btree", "hash"]
        n_index, title_index = db2.indexes.find("Doc", "n"), db2.indexes.find("Doc", "title")
        assert n_index.lookup(2) == {docs[2].oid}
        assert n_index.range(">=", 4) == {docs[4].oid, docs[5].oid}
        assert title_index.lookup("t1") == {docs[1].oid}
        assert title_index.range("<", "t2") == {docs[0].oid, docs[1].oid}
        assert db2.query("ACCESS d.n FROM d IN Doc WHERE d.title > 't3'") == [(4,), (5,)]
        db2.close()

    def test_queries_use_rebuilt_index(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        db.create_index("Doc", "n")
        db.create_object("Doc", n=9)
        db.close()
        db2 = make_db(path)
        plan = db2.explain("ACCESS d FROM d IN Doc WHERE d.n = 9")
        assert plan["variables"]["d"]["access_path"] == "index probe"
        assert db2.query("ACCESS d.n FROM d IN Doc WHERE d.n = 9") == [(9,)]
        db2.close()


class TestCreateRecords:
    def test_create_logs_one_record_with_its_attributes(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        mark = db._wal.next_lsn
        doc = db.create_object("Doc", title="a", n=1)
        records = [r for r in db._wal.records() if r.lsn >= mark]
        assert [r.kind for r in records] == ["BEGIN", "CREATE", "COMMIT"]
        assert records[1].payload == {
            "oid": doc.oid.value, "class": "Doc", "attributes": {"title": "a", "n": 1},
        }
        db._wal.close()  # crash: recovery replays the one record
        db2 = make_db(path)
        assert db2.read_attributes(doc.oid) == {"title": "a", "n": 1}
        db2._wal.close()

    def test_create_checks_every_attribute_before_creating(self):
        import pytest

        from repro.errors import SchemaError

        db = make_db(None)
        with pytest.raises(SchemaError):
            db.create_object("Doc", title="a", n="not an int")
        assert db.object_count() == 0

    def test_a_rolled_back_create_leaves_no_object_and_no_index_entry(self):
        db = make_db(None)
        db.create_index("Doc", "n")
        txn = db.begin()
        doc = db.create_object("Doc", n=4)
        txn.rollback()
        assert not db.object_exists(doc.oid)
        assert db.query("ACCESS d FROM d IN Doc WHERE d.n = 4") == []

    def test_older_create_then_write_records_replay(self, tmp_path):
        path = str(tmp_path)
        with open(tmp_path / "wal.log", "w", encoding="utf-8") as fh:
            for lsn, kind, payload in [
                (1, "BEGIN", {}),
                (2, "SCHEMA", {"op": "class", "name": "Doc", "superclass": None,
                               "attributes": {"title": "STRING", "n": "INT"}}),
                (3, "CREATE", {"oid": 1, "class": "Doc"}),
                (4, "WRITE", {"oid": 1, "attr": "title", "value": "old"}),
                (5, "WRITE", {"oid": 1, "attr": "n", "value": 7}),
                (6, "COMMIT", {}),
            ]:
                fh.write(f'{{"lsn": {lsn}, "kind": "{kind}", "txn": 1, "payload": '
                         f'{json.dumps(payload)}}}\n')
        db = make_db(path)
        (doc,) = db.instances_of("Doc")
        assert (doc.get("title"), doc.get("n")) == ("old", 7)
        db.close()
