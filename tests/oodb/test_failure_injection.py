"""Failure injection: torn WAL tails, corrupt logs, crash windows."""

import os

import pytest

from repro.errors import RecoveryError
from repro.oodb import Database
from repro.oodb.wal import WriteAheadLog


def make_db(path):
    db = Database(directory=path)
    if not db.schema.has_class("Doc"):
        db.define_class("Doc", attributes={"n": "INT"})
    return db


class TestTornTail:
    def test_truncated_last_record_is_dropped(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        db.create_object("Doc", n=1)
        db._wal.close()
        wal_path = os.path.join(path, "wal.log")
        with open(wal_path, "a", encoding="utf-8") as fh:
            fh.write('{"lsn": 99, "kind": "WRITE", "txn"')  # torn mid-write
        recovered = make_db(path)
        assert [o.get("n") for o in recovered.instances_of("Doc")] == [1]
        recovered.close()

    def test_corruption_in_the_middle_raises(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        db.create_object("Doc", n=1)
        db.create_object("Doc", n=2)
        db._wal.close()
        wal_path = os.path.join(path, "wal.log")
        lines = open(wal_path, "r", encoding="utf-8").read().splitlines()
        lines[1] = "GARBAGE NOT JSON"
        with open(wal_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError):
            Database(directory=path)

    def test_the_next_record_overwrites_a_torn_tail(self, tmp_path):
        """Appends resume at the end of the last verified record, not behind
        the torn fragment, so a second reopen reads every record."""
        path = str(tmp_path)
        db = make_db(path)
        db.create_object("Doc", n=1)
        db._wal.close()
        with open(os.path.join(path, "wal.log"), "a", encoding="utf-8") as fh:
            fh.write('{"kind": "BEGIN", "lsn": 99')  # torn, no newline
        reopened = make_db(path)
        reopened.create_object("Doc", n=2)
        reopened._wal.close()  # no checkpoint
        again = make_db(path)
        assert sorted(o.get("n") for o in again.instances_of("Doc")) == [1, 2]
        again.close()

    def test_torn_tail_of_uncommitted_txn_loses_nothing(self, tmp_path):
        # The torn record necessarily belongs to an uncommitted transaction,
        # because COMMIT records are fsynced before append() returns.
        path = str(tmp_path)
        db = make_db(path)
        committed = db.create_object("Doc", n=1)
        db._wal.close()
        wal_path = os.path.join(path, "wal.log")
        with open(wal_path, "a", encoding="utf-8") as fh:
            fh.write('{"lsn": 50, "kind": "BEGIN", "txn": 77, "payload": {}}\n')
            fh.write('{"lsn": 51, "kind": "CREATE", "txn": 77, "pay')  # torn
        recovered = make_db(path)
        assert recovered.object_exists(committed.oid)
        assert len(recovered.instances_of("Doc")) == 1
        recovered.close()


class TestCrashWindows:
    def test_crash_before_first_checkpoint(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        db.create_object("Doc", n=5)
        db._wal.close()  # no checkpoint ever written
        recovered = make_db(path)
        assert [o.get("n") for o in recovered.instances_of("Doc")] == [5]
        recovered.close()

    def test_crash_between_checkpoints(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        db.create_object("Doc", n=1)
        db.checkpoint()
        db.create_object("Doc", n=2)
        db.checkpoint()
        db.create_object("Doc", n=3)
        db._wal.close()
        recovered = make_db(path)
        assert sorted(o.get("n") for o in recovered.instances_of("Doc")) == [1, 2, 3]
        recovered.close()

    def test_double_recovery_is_idempotent(self, tmp_path):
        path = str(tmp_path)
        db = make_db(path)
        db.create_object("Doc", n=1)
        db._wal.close()
        once = make_db(path)
        state_once = sorted(o.get("n") for o in once.instances_of("Doc"))
        once._wal.close()
        twice = make_db(path)
        assert sorted(o.get("n") for o in twice.instances_of("Doc")) == state_once
        twice.close()

    def test_empty_wal_file(self, tmp_path):
        path = str(tmp_path)
        os.makedirs(path, exist_ok=True)
        open(os.path.join(path, "wal.log"), "w").close()
        db = make_db(path)
        assert db.object_count() == 0
        db.close()


class TestFailedCheckpoint:
    def test_a_checkpoint_whose_commit_fails_leaves_the_log_in_use(self, tmp_path, monkeypatch):
        """The log is reset only after the object batch is durable: when
        the commit fails, later records go on behind the old ones."""
        from repro.store.file import StoreFile

        path = str(tmp_path)
        db = make_db(path)
        db.create_object("Doc", n=1)

        def broken(self, payload):
            raise OSError("disk full")

        monkeypatch.setattr(StoreFile, "commit", broken)
        with pytest.raises(OSError):
            db.checkpoint()
        monkeypatch.undo()
        db.create_object("Doc", n=2)
        db._wal.close()  # crash
        recovered = make_db(path)
        assert sorted(o.get("n") for o in recovered.instances_of("Doc")) == [1, 2]
        recovered.close()


class TestWALUnit:
    def test_reader_skips_blank_lines(self, tmp_path):
        wal_path = str(tmp_path / "wal.log")
        with open(wal_path, "w", encoding="utf-8") as fh:
            fh.write('{"lsn": 1, "kind": "BEGIN", "txn": 1, "payload": {}}\n\n\n')
        log = WriteAheadLog(wal_path)
        assert len(log) == 1
        log.close()
