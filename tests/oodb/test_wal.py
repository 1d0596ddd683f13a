"""Write-ahead log: records, persistence, corruption handling."""

import json
import os
import zlib

import pytest

from repro.errors import RecoveryError
from repro.oodb import wal as w
from repro.oodb.wal import LogRecord, WriteAheadLog


class TestLogRecords:
    def test_lsns_monotone(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "wal.log")) as log:
            records = [log.append(w.BEGIN, 1), log.append(w.COMMIT, 1)]
        assert [r.lsn for r in records] == [1, 2]

    def test_committed_transactions(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "wal.log")) as log:
            log.append(w.BEGIN, 1)
            log.append(w.COMMIT, 1)
            log.append(w.BEGIN, 2)
            log.append(w.ABORT, 2)
            assert log.committed_transactions() == {1}

    def test_reset_forgets_the_records_below_the_mark(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "wal.log")) as log:
            log.append(w.BEGIN, 1)
            log.reset(log.next_lsn)
            assert len(log) == 0


class TestFileLog:
    def test_file_log_keeps_every_record_until_reset(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as log:
            for number in range(5000):
                log.append(w.WRITE, number)
            assert len(log) == 5000
        with WriteAheadLog(path) as reopened:
            assert len(reopened) == 5000

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

    def test_reset_overwrites_the_old_records_in_place(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        for txn in (1, 2, 3):
            log.append(w.BEGIN, txn)
            log.append(w.COMMIT, txn)
        size = os.path.getsize(path)
        mark = log.next_lsn
        log.reset(mark)
        assert len(log) == 0
        log.append(w.BEGIN, 4)
        log.append(w.COMMIT, 4)
        log.close()
        assert os.path.getsize(path) == size  # nothing freed: the new lines overwrite
        with open(path, "rb") as fh:
            assert json.loads(fh.readline())["lsn"] == mark  # at offset 0
        reopened = WriteAheadLog(path, mark=mark)
        assert [(r.lsn, r.kind) for r in reopened.records()] == [
            (mark, w.BEGIN), (mark + 1, w.COMMIT),
        ]
        assert reopened.append(w.BEGIN, 5).lsn == mark + 2
        reopened.close()
        again = WriteAheadLog(path, mark=mark)
        assert [r.txn_id for r in again.records()] == [4, 4, 5]
        again.close()

    def test_reset_waits_while_records_from_the_mark_on_exist(self, tmp_path):
        """Records logged while a checkpoint ran stay, and appends go on
        behind them; reading skips what lies below the mark."""
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path)
        log.append(w.BEGIN, 1)
        log.append(w.COMMIT, 1)
        mark = log.next_lsn
        log.append(w.BEGIN, 2)
        log.append(w.ITEM, 2, {"oid": 3, "attr": "d", "path": ["k"], "value": 1})
        log.reset(mark)
        assert [r.kind for r in log.records()] == [w.BEGIN, w.ITEM]
        record = log.append(w.COMMIT, 2)  # appends go on behind the kept ones
        log.close()
        reopened = WriteAheadLog(path, mark=mark)
        assert [(r.lsn, r.kind) for r in reopened.records()] == [
            (mark, w.BEGIN), (mark + 1, w.ITEM), (record.lsn, w.COMMIT),
        ]
        reopened.reset(reopened.next_lsn)  # nothing from the new mark on: offset 0
        reopened.append(w.BEGIN, 3)
        reopened.close()
        with open(path, "rb") as fh:
            assert json.loads(fh.readline())["lsn"] == record.lsn + 1

    def test_a_mark_past_every_record_resumes_at_offset_zero(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as log:
            log.append(w.BEGIN, 1)
            log.append(w.COMMIT, 1)
        with WriteAheadLog(path, mark=10) as log:
            assert len(log) == 0
            assert log.append(w.BEGIN, 2).lsn == 10
        with open(path, "rb") as fh:
            assert json.loads(fh.readline())["lsn"] == 10

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

    def test_a_line_carries_its_crc_as_a_json_field(self):
        line = LogRecord(3, w.WRITE, 7, {"a": 1}).to_json()
        fields = json.loads(line)
        assert (fields["lsn"], fields["kind"], fields["txn"], fields["payload"]) == (
            3, w.WRITE, 7, {"a": 1},
        )
        body = json.dumps({k: v for k, v in fields.items() if k != "crc"})
        assert fields["crc"] == zlib.crc32(body.encode("utf-8"))

    def test_a_line_whose_crc_fails_ends_the_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        lines = [LogRecord(n, w.BEGIN, n, {"x": "ab"}).to_json() for n in (1, 2, 3)]
        lines[2] = lines[2].replace('"ab"', '"ac"')  # still JSON, CRC broken
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with WriteAheadLog(path) as log:
            assert [r.lsn for r in log.records()] == [1, 2]
        lines[1] = lines[1].replace('"ab"', '"ac"')  # a verifying record after it
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:2] + [LogRecord(3, w.BEGIN, 3, {}).to_json()]) + "\n")
        with pytest.raises(RecoveryError):
            WriteAheadLog(path)

    def test_older_records_behind_the_new_ones_are_not_read(self, tmp_path):
        path = str(tmp_path / "wal.log")
        new = [LogRecord(n, w.BEGIN, n, {}).to_json() for n in (20, 21)]
        old = [LogRecord(n, w.BEGIN, n, {}).to_json() for n in range(5, 12)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(new + [old[2][7:]] + old[3:]) + "\n")
        with WriteAheadLog(path, mark=20) as log:
            assert [r.lsn for r in log.records()] == [20, 21]
            assert log.next_lsn == 22
        with open(path, "w", encoding="utf-8") as fh:  # the new lines ending on a line end
            fh.write("\n".join(new + old) + "\n")
        for mark in (20, 0):  # without the mark: where LSNs stop rising
            with WriteAheadLog(path, mark=mark) as log:
                assert [r.lsn for r in log.records()] == [20, 21]

    def test_a_log_without_crcs_reads_until_its_first_reset(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"lsn": 1, "kind": "BEGIN", "txn": 1, "payload": {}}\n')
            fh.write('{"lsn": 2, "kind": "COMMIT", "txn": 1, "payload": {}}\n')
        with WriteAheadLog(path) as log:
            assert [r.kind for r in log.records()] == [w.BEGIN, w.COMMIT]
            log.append(w.BEGIN, 2)
        with WriteAheadLog(path) as log:
            assert [r.lsn for r in log.records()] == [1, 2, 3]

    def test_corrupt_json_raises(self):
        with pytest.raises(RecoveryError):
            LogRecord.from_json("{not json")

    def test_unknown_kind_raises(self):
        with pytest.raises(RecoveryError):
            LogRecord.from_json('{"lsn":1,"kind":"NOPE","txn":1,"payload":{}}')

    def test_missing_field_raises(self):
        with pytest.raises(RecoveryError):
            LogRecord.from_json('{"lsn":1,"kind":"BEGIN"}')
