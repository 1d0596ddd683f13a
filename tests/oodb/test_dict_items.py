"""Dict-item writes: the ITEM WAL record, undo, redo, grouping, versions."""

import os
import shutil
import threading

import pytest

from repro.errors import SchemaError
from repro.oodb import Database
from repro.oodb import wal as wal_records
from repro.oodb.oid import OID


def make_db(path=None):
    db = Database(directory=path)
    if not db.schema.has_class("Box"):
        db.define_class("Box", attributes={"items": "DICT", "n": "INT"})
    return db


def kinds(db, since=0):
    return [r.kind for r in db._wal.records() if r.lsn > since]


def last_lsn(db):
    records = list(db._wal.records())
    return records[-1].lsn if records else 0


class TestWriteDictItem:
    def test_sets_nested_item_in_place(self):
        db = make_db()
        box = db.create_object("Box", items={"a": {"x": 1}})
        stored = box.get("items")
        db.write_dict_item(box.oid, "items", ("a", "y"), 2)
        assert box.get("items") == {"a": {"x": 1, "y": 2}}
        assert box.get("items") is stored  # mutated, not replaced

    def test_creates_missing_dictionaries(self):
        db = make_db()
        box = db.create_object("Box")
        db.write_dict_item(box.oid, "items", ("a", "b"), 0.5)
        assert box.get("items") == {"a": {"b": 0.5}}

    def test_overwrites_existing_item(self):
        db = make_db()
        box = db.create_object("Box", items={"a": 1})
        db.write_dict_item(box.oid, "items", ("a",), 2)
        assert box.get("items") == {"a": 2}

    def test_rejects_non_dict_attribute_and_path(self):
        db = make_db()
        box = db.create_object("Box", n=3, items={"a": 1})
        with pytest.raises(SchemaError):
            db.write_dict_item(box.oid, "n", ("a",), 1)
        with pytest.raises(SchemaError):
            db.write_dict_item(box.oid, "items", ("a", "b"), 1)  # "a" holds an int
        with pytest.raises(ValueError):
            db.write_dict_item(box.oid, "items", (), 1)
        assert box.get("items") == {"a": 1}

    def test_logs_one_item_record_with_path_and_value_only(self, tmp_path):
        db = make_db(str(tmp_path))
        box = db.create_object("Box", items={"big": {str(i): i for i in range(5000)}})
        mark = last_lsn(db)
        db.write_dict_item(box.oid, "items", ("big", "new"), 0.25)
        assert kinds(db, mark) == [wal_records.BEGIN, wal_records.ITEM, wal_records.COMMIT]
        record = [r for r in db._wal.records() if r.kind == wal_records.ITEM][-1]
        assert record.payload == {
            "oid": box.oid.value, "attr": "items", "path": ["big", "new"], "value": 0.25,
        }
        assert len(record.to_json()) < 200  # whatever the dictionary holds
        db.close()

    def test_oid_keys_and_values_round_trip_the_log(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        box = db.create_object("Box", items={})
        db.write_dict_item(box.oid, "items", (OID(7),), {"ref": OID(9)})
        db._wal.close()
        recovered = make_db(path)
        assert recovered.get_object(box.oid).get("items") == {OID(7): {"ref": OID(9)}}
        recovered.close()


class TestDeleteDictItem:
    def test_removes_the_item_in_place(self):
        db = make_db()
        box = db.create_object("Box", items={"a": {"x": 1, "y": 2}, "b": 3})
        stored = box.get("items")
        db.delete_dict_item(box.oid, "items", ("a", "x"))
        db.delete_dict_item(box.oid, "items", ("b",))
        assert box.get("items") == {"a": {"y": 2}}
        assert box.get("items") is stored  # mutated, not replaced

    def test_missing_key_path_and_attribute_change_nothing(self):
        db = make_db()
        box = db.create_object("Box", items={"a": {"x": 1}})
        bare = db.create_object("Box")
        db.delete_dict_item(box.oid, "items", ("gone",))
        db.delete_dict_item(box.oid, "items", ("gone", "deeper"))
        db.delete_dict_item(box.oid, "items", ("a", "gone"))
        db.delete_dict_item(bare.oid, "items", ("a",))
        assert box.get("items") == {"a": {"x": 1}}
        assert bare.get("items") is None  # no dictionary created on the way

    def test_rejects_non_dict_attribute_and_path(self):
        db = make_db()
        box = db.create_object("Box", n=3, items={"a": 1})
        with pytest.raises(SchemaError):
            db.delete_dict_item(box.oid, "n", ("a",))
        with pytest.raises(SchemaError):
            db.delete_dict_item(box.oid, "items", ("a", "b"))  # "a" holds an int
        with pytest.raises(ValueError):
            db.delete_dict_item(box.oid, "items", ())
        assert box.get("items") == {"a": 1}

    def test_logs_one_item_record_without_a_value(self, tmp_path):
        db = make_db(str(tmp_path))
        box = db.create_object("Box", items={str(i): [i] for i in range(5000)})
        mark = last_lsn(db)
        version = db.write_version(box.oid)
        assert db.delete_dict_item(box.oid, "items", ("17",)) == version + 1
        assert kinds(db, mark) == [wal_records.BEGIN, wal_records.ITEM, wal_records.COMMIT]
        record = [r for r in db._wal.records() if r.kind == wal_records.ITEM][-1]
        assert record.payload == {"oid": box.oid.value, "attr": "items", "path": ["17"]}
        assert len(record.to_json()) < 200  # whatever the dictionary holds
        db.close()

    def test_abort_restores_the_key_and_its_value(self):
        db = make_db()
        box = db.create_object("Box", items={"a": [1, 2], "b": {"x": 1}})
        with pytest.raises(RuntimeError):
            with db.begin():
                db.delete_dict_item(box.oid, "items", ("a",))
                db.delete_dict_item(box.oid, "items", ("b", "x"))
                db.delete_dict_item(box.oid, "items", ("never",))
                db.write_dict_item(box.oid, "items", ("a",), [9])  # re-added, then undone too
                assert box.get("items") == {"a": [9], "b": {}}
                raise RuntimeError("abort")
        assert box.get("items") == {"a": [1, 2], "b": {"x": 1}}

    def test_replays_in_log_order_and_is_idempotent(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        box = db.create_object("Box", items={"a": 1, "b": 2})
        db.checkpoint()
        db.delete_dict_item(box.oid, "items", ("a",))
        db.write_dict_item(box.oid, "items", ("a",), 3)   # set after delete survives
        db.delete_dict_item(box.oid, "items", ("b",))
        db.delete_dict_item(box.oid, "items", ("b",))     # already gone
        db.delete_dict_item(box.oid, "items", ("c", "d"))  # never there
        txn = db.begin()
        db.delete_dict_item(box.oid, "items", ("a",))
        txn.rollback()                                     # aborted: not replayed
        db._wal.close()
        for _ in range(2):  # a second crash replays the same log again
            recovered = make_db(path)
            assert recovered.get_object(box.oid).get("items") == {"a": 3}
            recovered._wal.close()

    def test_every_torn_tail_of_a_set_and_delete_group(self, tmp_path):
        """Cut the log at every byte of one group that sets and deletes
        items: recovery yields the whole group or none of it."""
        path = str(tmp_path / "db")
        db = make_db(path)
        before = {"keep": [1], "drop": [2], "change": [3]}
        box = db.create_object("Box", items=dict(before))
        wal_path = os.path.join(path, "wal.log")
        db._wal._file.flush()
        base = os.path.getsize(wal_path)
        with db.autocommit_group():
            db.write_dict_item(box.oid, "items", ("new",), [4, 5])
            db.delete_dict_item(box.oid, "items", ("drop",))
            db.write_dict_item(box.oid, "items", ("change",), [6])
            db.delete_dict_item(box.oid, "items", ("absent",))
            box.set("n", 1)
        after = box.get("items")
        assert after == {"keep": [1], "change": [6], "new": [4, 5]}
        db._wal.close()
        end = os.path.getsize(wal_path)
        for cut in range(base, end + 1):
            image = str(tmp_path / "image")
            shutil.rmtree(image, ignore_errors=True)
            shutil.copytree(path, image)
            os.truncate(os.path.join(image, "wal.log"), cut)
            recovered = make_db(image)
            got = recovered.get_object(box.oid)
            # A COMMIT line survives without its trailing newline.
            if cut >= end - 1:
                assert (got.get("items"), got.get("n")) == (after, 1), f"cut at {cut}"
            else:
                assert (got.get("items"), got.get("n")) == (before, None), f"cut at {cut}"
            recovered._wal.close()


class TestUndo:
    def test_rollback_removes_new_items_and_restores_old_values(self):
        db = make_db()
        box = db.create_object("Box", items={"a": {"x": 1}})
        with pytest.raises(RuntimeError):
            with db.begin():
                db.write_dict_item(box.oid, "items", ("a", "x"), 99)
                db.write_dict_item(box.oid, "items", ("a", "y"), 2)
                db.write_dict_item(box.oid, "items", ("b", "z"), 3)
                assert box.get("items") == {"a": {"x": 99, "y": 2}, "b": {"z": 3}}
                raise RuntimeError("abort")
        assert box.get("items") == {"a": {"x": 1}}

    def test_rollback_of_item_written_into_never_written_attribute(self):
        db = make_db()
        box = db.create_object("Box")
        txn = db.begin()
        db.write_dict_item(box.oid, "items", ("a",), 1)
        txn.rollback()
        assert box.get("items") is None

    def test_rollback_interleaved_with_whole_attribute_writes(self):
        db = make_db()
        box = db.create_object("Box", items={"old": 1})
        txn = db.begin()
        db.write_dict_item(box.oid, "items", ("k",), 1)
        box.set("items", {})
        db.write_dict_item(box.oid, "items", ("k2",), 2)
        txn.rollback()
        assert box.get("items") == {"old": 1}

    def test_rollback_after_another_threads_autocommit_reset(self):
        """Autocommits bypass the lock manager: the dictionary an item went
        into may be gone from the object when its transaction rolls back."""
        db = make_db()
        box = db.create_object("Box", items={"k1": {"a": 1}}, n=1)
        txn = db.begin()
        db.write_dict_item(box.oid, "items", ("k1", "b"), 2)  # into a kept dict
        db.write_dict_item(box.oid, "items", ("k2", "c"), 3)  # attaches a new one
        box.set("n", 2)
        resetter = threading.Thread(
            target=db.write_attribute, args=(box.oid, "items", {"fresh": 9})
        )
        resetter.start()
        resetter.join()
        txn.rollback()  # the items went with the dictionary: nothing to walk to
        assert box.get("items") == {"fresh": 9}
        assert box.get("n") == 1  # the rest of the transaction is undone

    def test_commit_keeps_items(self):
        db = make_db()
        box = db.create_object("Box", items={})
        with db.begin():
            db.write_dict_item(box.oid, "items", ("a",), 1)
        assert box.get("items") == {"a": 1}


class TestRedo:
    def test_items_replay_on_top_of_whole_writes_in_log_order(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        box = db.create_object("Box", items={"a": {"x": 1}})
        db.write_dict_item(box.oid, "items", ("a", "y"), 2)
        box.set("items", {})  # reset: the earlier item must not resurface
        db.write_dict_item(box.oid, "items", ("b", "z"), 3)
        db.write_dict_item(box.oid, "items", ("b", "z"), 4)
        expected = box.get("items")
        db._wal.close()  # crash: no checkpoint
        recovered = make_db(path)
        assert recovered.get_object(box.oid).get("items") == expected == {"b": {"z": 4}}
        recovered.close()

    def test_items_replay_on_top_of_a_snapshot(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        box = db.create_object("Box", items={"a": {"x": 1}})
        db.checkpoint()
        db.write_dict_item(box.oid, "items", ("a", "y"), 2)
        db._wal.close()
        recovered = make_db(path)
        assert recovered.get_object(box.oid).get("items") == {"a": {"x": 1, "y": 2}}
        recovered.close()

    def test_uncommitted_and_aborted_items_are_not_replayed(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        box = db.create_object("Box", items={})
        txn = db.begin()
        db.write_dict_item(box.oid, "items", ("aborted",), 1)
        txn.rollback()
        db.begin()
        db.write_dict_item(box.oid, "items", ("in_flight",), 2)
        db._wal.close()  # crash with the transaction open
        recovered = make_db(path)
        assert recovered.get_object(box.oid).get("items") == {}
        recovered.close()

    def test_item_for_deleted_object_is_skipped(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        box = db.create_object("Box", items={})
        db.write_dict_item(box.oid, "items", ("a",), 1)
        db.delete_object(box)
        db._wal.close()
        recovered = make_db(path)
        assert not recovered.object_exists(box.oid)
        recovered.close()

    def test_every_torn_tail_recovers_a_prefix_of_the_item_writes(self, tmp_path):
        """Cut the log at every byte of its item-writing tail: recovery never
        fails and yields exactly the items whose COMMIT survived."""
        path = str(tmp_path / "db")
        db = make_db(path)
        box = db.create_object("Box", items={})
        wal_path = os.path.join(path, "wal.log")
        db._wal._file.flush()
        base = os.path.getsize(wal_path)
        ends = []
        for i in range(4):
            db.write_dict_item(box.oid, "items", ("k", str(i)), i)
            db._wal._file.flush()
            ends.append(os.path.getsize(wal_path))
        db._wal.close()
        for cut in range(base, ends[-1] + 1):
            image = str(tmp_path / "image")
            shutil.rmtree(image, ignore_errors=True)
            shutil.copytree(path, image)
            os.truncate(os.path.join(image, "wal.log"), cut)
            recovered = make_db(image)
            # A COMMIT line survives without its trailing newline.
            survived = sum(1 for end in ends if end - 1 <= cut)
            expected = {"k": {str(i): i for i in range(survived)}} if survived else {}
            assert recovered.get_object(box.oid).get("items") == expected, f"cut at {cut}"
            recovered._wal.close()


class TestAutocommitGroup:
    def test_group_logs_one_begin_and_one_commit(self, tmp_path):
        db = make_db(str(tmp_path))
        box = db.create_object("Box", items={})
        mark = last_lsn(db)
        with db.autocommit_group():
            db.write_dict_item(box.oid, "items", ("a",), 1)
            box.set("n", 2)
            with db.autocommit_group():  # nested: joins the outer group
                db.write_dict_item(box.oid, "items", ("b",), 3)
        assert kinds(db, mark) == [
            wal_records.BEGIN, wal_records.ITEM, wal_records.WRITE,
            wal_records.ITEM, wal_records.COMMIT,
        ]
        assert len({r.txn_id for r in db._wal.records() if r.lsn > mark}) == 1
        db.close()

    def test_group_without_writes_logs_nothing(self, tmp_path):
        db = make_db(str(tmp_path))
        mark = last_lsn(db)
        with db.autocommit_group():
            pass
        assert kinds(db, mark) == []
        db.close()

    def test_group_commits_what_was_applied_when_the_block_raises(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        box = db.create_object("Box", items={})
        with pytest.raises(RuntimeError):
            with db.autocommit_group():
                db.write_dict_item(box.oid, "items", ("a",), 1)
                raise RuntimeError("statement failed")
        db._wal.close()
        recovered = make_db(path)
        assert recovered.get_object(box.oid).get("items") == {"a": 1}
        recovered.close()

    def test_group_syncs_once(self, tmp_path):
        from repro import obs

        db = make_db(str(tmp_path))
        box = db.create_object("Box", items={})
        with obs.instrumentation() as (_tracer, metrics):
            with db.autocommit_group():
                for i in range(10):
                    db.write_dict_item(box.oid, "items", (str(i),), i)
            assert metrics.snapshot()["counters"]["oodb.wal.fsyncs"] == 1
        db.close()

    def test_group_inside_a_transaction_defers_to_it(self):
        db = make_db()
        box = db.create_object("Box", items={})
        txn = db.begin()
        with db.autocommit_group():
            db.write_dict_item(box.oid, "items", ("a",), 1)
        txn.rollback()
        assert box.get("items") == {}


class TestWriteVersion:
    def test_every_mutation_and_its_undo_advance_the_version(self):
        db = make_db()
        box = db.create_object("Box", items={})
        seen = [db.write_version(box.oid)]

        def advanced():
            seen.append(db.write_version(box.oid))
            return seen[-1] > seen[-2]

        box.set("n", 1)
        assert advanced()
        assert db.write_dict_item(box.oid, "items", ("a",), 1) == db.write_version(box.oid)
        assert advanced()
        txn = db.begin()
        box.set("n", 2)
        db.write_dict_item(box.oid, "items", ("b",), 2)
        before_undo = db.write_version(box.oid)
        txn.rollback()
        assert db.write_version(box.oid) == before_undo + 2
        txn = db.begin()
        db.delete_object(box)
        txn.rollback()
        assert advanced()

    def test_reads_do_not_advance_the_version(self):
        db = make_db()
        box = db.create_object("Box", items={"a": 1})
        version = db.write_version(box.oid)
        box.get("items"), box.attributes(), db.instances_of("Box")
        assert db.write_version(box.oid) == version


class TestExtentAccess:
    def test_size_and_oids_match_instances_of(self):
        db = make_db()
        db.define_class("SmallBox", superclass="Box")
        boxes = [db.create_object("Box") for _ in range(3)]
        small = [db.create_object("SmallBox") for _ in range(2)]
        db.delete_object(boxes[0])
        assert db.extent_size("Box") == len(db.instances_of("Box")) == 4
        assert db.extent_size("SmallBox") == 2
        assert db.extent_oids("Box") == {o.oid for o in db.instances_of("Box")}
        assert db.extent_oids("SmallBox") == {o.oid for o in small}
        db.extent_oids("Box").clear()  # a copy: the store's extent is untouched
        assert db.extent_size("Box") == 4


class TestCheckpointVersusItemWrites:
    def test_checkpoints_while_another_thread_writes_items(self, tmp_path):
        """A checkpoint never iterates a dictionary that is being added to."""
        path = str(tmp_path)
        db = make_db(path)
        box = db.create_object("Box", items={"big": {str(i): i for i in range(20000)}})
        stop = threading.Event()
        errors = []
        written = [0]

        def writer():
            try:
                while not stop.is_set():
                    db.write_dict_item(box.oid, "items", ("big", f"n{written[0]}"), 1)
                    db.write_dict_item(box.oid, "items", (f"top{written[0]}",), 1)
                    written[0] += 1
            except Exception as exc:  # pragma: no cover - the failure under test
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(5):
                db.checkpoint()
        finally:
            stop.set()
            thread.join()
        assert not errors and written[0] > 0
        # No write is lost between a checkpoint's batch and the log's
        # reset: records logged while a checkpoint ran stay readable.
        db._wal.close()
        recovered = make_db(path)
        assert recovered.get_object(box.oid).get("items") == box.get("items")
