"""Write-ahead log: records, persistence, corruption handling."""

import os

import pytest

from repro.errors import RecoveryError
from repro.oodb import wal as w
from repro.oodb.wal import LogRecord, WriteAheadLog


class TestInMemoryLog:
    def test_lsns_monotone(self):
        log = WriteAheadLog()
        records = [log.append(w.BEGIN, 1), log.append(w.COMMIT, 1)]
        assert [r.lsn for r in records] == [1, 2]

    def test_committed_transactions(self):
        log = WriteAheadLog()
        log.append(w.BEGIN, 1)
        log.append(w.COMMIT, 1)
        log.append(w.BEGIN, 2)
        log.append(w.ABORT, 2)
        assert log.committed_transactions() == {1}

    def test_truncate_clears(self):
        log = WriteAheadLog()
        log.append(w.BEGIN, 1)
        log.truncate()
        assert len(log) == 0


    def test_keeps_only_the_most_recent_records(self):
        """Nothing recovers from or truncates an in-memory log: it is a
        bounded window, and LSNs keep counting past it."""
        log = WriteAheadLog()
        total = w.MEMORY_RECORDS + 500
        for number in range(total):
            log.append(w.WRITE, number, {"value": "x" * 100})
        assert len(log) == w.MEMORY_RECORDS
        kept = list(log.records())
        assert [r.lsn for r in kept] == list(range(501, total + 1))
        assert log.next_lsn == total + 1
        log.truncate(keep_from=total - 9)  # still a bounded window afterwards
        assert [r.lsn for r in log.records()] == list(range(total - 9, total + 1))
        for number in range(total):
            log.append(w.WRITE, number)
        assert len(log) == w.MEMORY_RECORDS


class TestFileLog:
    def test_file_log_keeps_every_record_until_truncated(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as log:
            for number in range(w.MEMORY_RECORDS + 10):
                log.append(w.WRITE, number)
            assert len(log) == w.MEMORY_RECORDS + 10
        with WriteAheadLog(path) as reopened:
            assert len(reopened) == w.MEMORY_RECORDS + 10

    def test_records_survive_reopen(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as log:
            log.append(w.BEGIN, 1)
            log.append(w.WRITE, 1, {"oid": 3, "attr": "x", "value": 1})
            log.append(w.COMMIT, 1)
        reopened = WriteAheadLog(path)
        kinds = [r.kind for r in reopened.records()]
        assert kinds == [w.BEGIN, w.WRITE, w.COMMIT]
        reopened.close()

    def test_lsn_continues_after_reopen(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as log:
            log.append(w.BEGIN, 1)
        with WriteAheadLog(path) as log:
            record = log.append(w.BEGIN, 2)
            assert record.lsn == 2

    def test_truncate_empties_file(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append(w.BEGIN, 1)
        log.append(w.COMMIT, 1)
        log.truncate()
        log.close()
        assert os.path.getsize(path) == 0

    def test_truncate_keeps_records_from_the_mark_on(self, tmp_path):
        """Records logged while a checkpoint's snapshot was taken stay."""
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append(w.BEGIN, 1)
        log.append(w.COMMIT, 1)
        mark = log.next_lsn
        log.append(w.BEGIN, 2)
        log.append(w.ITEM, 2, {"oid": 3, "attr": "d", "path": ["k"], "value": 1})
        log.append(w.CHECKPOINT, 0)
        log.truncate(keep_from=mark)
        assert [r.kind for r in log.records()] == [w.BEGIN, w.ITEM]
        record = log.append(w.COMMIT, 2)  # appends go on behind the kept ones
        log.close()
        reopened = WriteAheadLog(path)
        assert [(r.lsn, r.kind) for r in reopened.records()] == [
            (mark, w.BEGIN), (mark + 1, w.ITEM), (record.lsn, w.COMMIT),
        ]
        reopened.close()

    def test_payload_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        payload = {"oid": 9, "attr": "text", "value": {"__oid__": 4}}
        with WriteAheadLog(path) as log:
            log.append(w.WRITE, 5, payload)
        reopened = WriteAheadLog(path)
        assert next(iter(reopened.records())).payload == payload
        reopened.close()


class TestRecordParsing:
    def test_round_trip(self):
        record = LogRecord(3, w.WRITE, 7, {"a": 1})
        assert LogRecord.from_json(record.to_json()) == record

    def test_corrupt_json_raises(self):
        with pytest.raises(RecoveryError):
            LogRecord.from_json("{not json")

    def test_unknown_kind_raises(self):
        with pytest.raises(RecoveryError):
            LogRecord.from_json('{"lsn":1,"kind":"NOPE","txn":1,"payload":{}}')

    def test_missing_field_raises(self):
        with pytest.raises(RecoveryError):
            LogRecord.from_json('{"lsn":1,"kind":"BEGIN"}')
