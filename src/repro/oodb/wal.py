"""Write-ahead log.

Durability and atomicity are implemented with a classic redo-only WAL: every
object mutation is appended to the log as it is applied to the in-memory
store (store first, then log — nothing reaches disk but the log), commit
appends a COMMIT record and fsyncs, and recovery replays the log, applying
only mutations of committed transactions.

Records are newline-delimited JSON, inspectable with standard tools; each
line starts with ``"crc"``, the CRC-32 of the line without that field.  The
log is never truncated or replaced: once a checkpoint has made its *mark*
(the next LSN) durable, :meth:`WriteAheadLog.reset` sends the next append
to offset 0, over the old records, and reading stops where LSNs stop
rising (docs/storage-format.md has the rules).  ``CREATE`` carries the new
object's attributes; older logs' bare ``CREATE`` plus ``WRITE`` records
replay unchanged.

``ITEM`` is the one record that carries a *delta* instead of a whole
attribute value: ``{"oid", "attr", "path", "value"}`` sets
``attr[path[0]]...[path[-1]] = value`` inside a dictionary-valued attribute
(path keys and value in the store's value encoding).  Its size depends on
the item, not on the dictionary, which is what keeps an amend of the
persistent IRS-result buffer O(1) in log bytes.  Replay rule: applied in
LSN order like ``WRITE``, on top of whatever the checkpoint and earlier
records left in the attribute; dictionaries missing along the path are
created; a record whose object no longer exists is skipped.  An ``ITEM``
record *without* ``"value"`` deletes the item (a collection's ``doc_map``
loses a member this way); replaying it where the item, or a dictionary on
the path, is already gone changes nothing, so it is idempotent like the rest.

Only a durable database (one with a directory) logs.  A database kept in
memory has nothing to recover, and its rollback reads the transaction's
undo list, so it opens no log and appends no record.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.errors import RecoveryError

logger = logging.getLogger(__name__)

#: Log record kinds.
BEGIN = "BEGIN"
WRITE = "WRITE"          # attribute write: oid, attr, value
ITEM = "ITEM"            # dict-item write: oid, attr, key path, value (none: delete)
CREATE = "CREATE"        # object creation: oid, class_name, initial attributes
DELETE = "DELETE"        # object deletion: oid
SCHEMA = "SCHEMA"        # schema DDL: class definition or attribute addition
COMMIT = "COMMIT"
ABORT = "ABORT"
CHECKPOINT = "CHECKPOINT"  # written by older builds only

_RECORD_KINDS = {BEGIN, WRITE, ITEM, CREATE, DELETE, SCHEMA, COMMIT, ABORT, CHECKPOINT}

_CRC_PREFIX = b'{"crc": '
_LSN_FIELD = re.compile(rb'"lsn": (\d+)')


@dataclass(frozen=True)
class LogRecord:
    """One WAL record."""

    lsn: int
    kind: str
    txn_id: int
    payload: Dict[str, Any]

    def to_json(self) -> str:
        body = json.dumps(
            {"lsn": self.lsn, "kind": self.kind, "txn": self.txn_id, "payload": self.payload}
        )
        return f'{{"crc": {zlib.crc32(body.encode("utf-8"))}, {body[1:]}'

    @classmethod
    def from_json(cls, line: str) -> "LogRecord":
        try:
            raw = json.loads(line)
            kind = raw["kind"]
            if kind not in _RECORD_KINDS:
                raise ValueError(f"unknown record kind {kind!r}")
            return cls(lsn=raw["lsn"], kind=kind, txn_id=raw["txn"], payload=raw["payload"])
        except (ValueError, KeyError, TypeError) as exc:
            raise RecoveryError(f"corrupt WAL record: {line!r}") from exc


def _verified(line: bytes) -> Optional[LogRecord]:
    """The record on ``line`` if it parses and its CRC holds (lines older
    builds wrote have none)."""
    head, _sep, body = line.partition(b", ")
    if line.startswith(_CRC_PREFIX) and head[len(_CRC_PREFIX):] != b"%d" % zlib.crc32(b"{" + body):
        return None
    try:
        return LogRecord.from_json(line.decode("utf-8"))
    except (RecoveryError, UnicodeDecodeError):
        return None


class WriteAheadLog:
    """Append-only log file with LSN assignment and replay support.

    It keeps every record since the last checkpoint: recovery needs them
    all.  ``mark`` is the LSN the last durable checkpoint recorded: records
    below it are not read.
    """

    def __init__(self, path: str, mark: int = 0) -> None:
        #: Appends come from any thread (readers buffer IRS results); LSN
        #: assignment, the file write and the reset exclude each other.
        self._lock = threading.Lock()
        self._records, offset = self._read_existing(path, mark)
        self._next_lsn = max(self._records[-1].lsn + 1 if self._records else 1, mark)
        self._file = open(path, "r+b" if os.path.exists(path) else "w+b")
        if self._file.seek(0, os.SEEK_END) < offset:  # the last record lacks its newline
            self._file.write(b"\n")
        self._file.seek(offset)

    @staticmethod
    def _read_existing(path: str, mark: int) -> Tuple[List[LogRecord], int]:
        """The records at or above ``mark`` and the offset appends resume at
        (past the newline ending the last of them, else 0).  Stops at a torn
        line (its transaction never committed: COMMIT records are flushed)
        or at older records behind a reset; a verifying record with a higher
        LSN after the stop raises :class:`RecoveryError`.
        """
        if not os.path.exists(path):
            return [], 0
        with open(path, "rb") as fh:
            data = fh.read()
        records: List[LogRecord] = []
        offset = position = last = 0
        while position < len(data):
            end = data.find(b"\n", position)
            end = len(data) if end < 0 else end
            line, position = data[position:end].strip(), end + 1
            if not line:
                continue
            record = _verified(line)
            if record is None or record.lsn <= last:
                # Only a line with a higher LSN can be a lost middle; the
                # older records behind a reset all have lower ones.
                floor = max(last, mark - 1)
                for found in _LSN_FIELD.finditer(data, position):
                    start = data.rfind(b"\n", 0, found.start()) + 1
                    later = int(found.group(1)) > floor and _verified(
                        data[start:].split(b"\n", 1)[0].strip()
                    )
                    if later and later.lsn > floor:
                        raise RecoveryError(f"corrupt WAL record: {line.decode('utf-8', 'replace')!r}")
                logger.info("WAL %s ends at byte %d (torn tail or older records)", path, offset)
                break
            last = record.lsn
            if record.lsn >= mark:
                records.append(record)
                offset = position
        return records, offset

    # -- appending ----------------------------------------------------------

    def append(self, kind: str, txn_id: int, payload: Optional[Dict[str, Any]] = None) -> LogRecord:
        """Append a record; COMMIT records are flushed to stable storage."""
        registry = obs.metrics()
        with self._lock:
            record = LogRecord(self._next_lsn, kind, txn_id, payload or {})
            self._next_lsn += 1
            self._records.append(record)
            registry.counter("oodb.wal.appends").inc()
            line = (record.to_json() + "\n").encode("utf-8")
            self._file.write(line)
            registry.counter("oodb.wal.bytes").inc(len(line))
            if kind == COMMIT:
                started = time.perf_counter()
                self._file.flush()
                os.fsync(self._file.fileno())
                registry.counter("oodb.wal.fsyncs").inc()
                registry.histogram("oodb.wal.fsync_seconds").observe(
                    time.perf_counter() - started
                )
        return record

    # -- reading ---------------------------------------------------------------

    def records(self) -> Iterator[LogRecord]:
        """All records in LSN order (since the last checkpoint's mark)."""
        return iter(list(self._records))

    def committed_transactions(self) -> set:
        """Transaction ids with a COMMIT record in the log."""
        return {r.txn_id for r in self._records if r.kind == COMMIT}

    def __len__(self) -> int:
        return len(self._records)

    # -- checkpointing -------------------------------------------------------------

    @property
    def next_lsn(self) -> int:
        """The LSN the next appended record gets."""
        return self._next_lsn

    def reset(self, mark: int) -> None:
        """Forget the records below ``mark``: a durable checkpoint has them.

        The next record goes to offset 0, over the old ones, unless records
        were appended from the mark on (changes the checkpoint may have
        missed): then appends continue at the end, and reading skips what
        lies below the mark.
        """
        with self._lock:
            self._records = [r for r in self._records if r.lsn >= mark]
            if self._file is not None and self._next_lsn == mark:
                self._file.seek(0)

    def close(self) -> None:
        """Close the underlying file, flushing buffered records."""
        if self._file is not None:
            self._file.flush()
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
