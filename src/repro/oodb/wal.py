"""Write-ahead log.

Durability and atomicity are implemented with a classic redo-only WAL: every
object mutation is appended to the log as it is applied to the in-memory
store (store first, then log — nothing reaches disk but the log), commit
appends a COMMIT record and fsyncs, and recovery replays the log, applying
only mutations of committed transactions.  Checkpoints snapshot the whole
store and truncate the log up to where the snapshot began; records other
threads appended meanwhile stay and are replayed on top of it.

Records are newline-delimited JSON so the log is inspectable with standard
tools — adequate for a reproduction and analogous in structure to the page
logs of production systems.

``ITEM`` is the one record that carries a *delta* instead of a whole
attribute value: ``{"oid", "attr", "path", "value"}`` sets
``attr[path[0]]...[path[-1]] = value`` inside a dictionary-valued attribute
(path keys and value in the store's value encoding).  Its size depends on
the item, not on the dictionary, which is what keeps an amend of the
persistent IRS-result buffer O(1) in log bytes.  Replay rule: applied in
LSN order like ``WRITE``, on top of whatever the snapshot and earlier
records left in the attribute; dictionaries missing along the path are
created; a record whose object no longer exists is skipped.  An ``ITEM``
record *without* ``"value"`` deletes the item (a collection's ``doc_map``
loses a member this way); replaying it where the item, or a dictionary on
the path, is already gone changes nothing, so it is idempotent like the rest.

An in-memory log (``path=None``) has nothing to recover and nothing that
truncates it, so it keeps only its most recent :data:`MEMORY_RECORDS`
records — what tests and tooling look at — while LSNs keep counting.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro import obs
from repro.errors import RecoveryError

logger = logging.getLogger(__name__)

#: Log record kinds.
BEGIN = "BEGIN"
WRITE = "WRITE"          # attribute write: oid, attr, value
ITEM = "ITEM"            # dict-item write: oid, attr, key path, value (none: delete)
CREATE = "CREATE"        # object creation: oid, class_name
DELETE = "DELETE"        # object deletion: oid
SCHEMA = "SCHEMA"        # schema DDL: class definition or attribute addition
COMMIT = "COMMIT"
ABORT = "ABORT"
CHECKPOINT = "CHECKPOINT"

_RECORD_KINDS = {BEGIN, WRITE, ITEM, CREATE, DELETE, SCHEMA, COMMIT, ABORT, CHECKPOINT}

#: Records an in-memory log retains (a file-backed log keeps every record
#: since the last checkpoint: recovery needs them all).
MEMORY_RECORDS = 4096


@dataclass(frozen=True)
class LogRecord:
    """One WAL record."""

    lsn: int
    kind: str
    txn_id: int
    payload: Dict[str, Any]

    def to_json(self) -> str:
        return json.dumps(
            {"lsn": self.lsn, "kind": self.kind, "txn": self.txn_id, "payload": self.payload},
            sort_keys=True,
        )

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


class WriteAheadLog:
    """Append-only log file with LSN assignment and replay support.

    ``path=None`` yields an in-memory log (used by ephemeral databases and by
    unit tests); the interface is identical.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._path = path
        self._records: Deque[LogRecord] = deque(
            maxlen=MEMORY_RECORDS if path is None else None
        )
        self._next_lsn = 1
        self._file = None
        #: Appends come from any thread (readers buffer IRS results); LSN
        #: assignment, the file write and truncation exclude each other.
        self._lock = threading.Lock()
        if path is not None:
            existing = self._read_existing(path)
            self._records.extend(existing)
            self._next_lsn = (existing[-1].lsn + 1) if existing else 1
            self._file = open(path, "a", encoding="utf-8")

    @staticmethod
    def _read_existing(path: str) -> List[LogRecord]:
        """Read records from disk, tolerating a torn final record.

        A crash while appending can leave a truncated last line; that tail
        is discarded (its transaction never committed — the COMMIT record is
        always flushed).  Corruption anywhere *before* the tail is a real
        integrity problem and raises :class:`RecoveryError`.
        """
        if not os.path.exists(path):
            return []
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
        lines = [line for line in lines if line]
        records = []
        for index, line in enumerate(lines):
            try:
                records.append(LogRecord.from_json(line))
            except RecoveryError:
                if index == len(lines) - 1:
                    logger.warning(
                        "dropping torn WAL tail record in %s (crash mid-append)", path
                    )
                    break
                raise
        return records

    # -- appending ----------------------------------------------------------

    def append(self, kind: str, txn_id: int, payload: Optional[Dict[str, Any]] = None) -> LogRecord:
        """Append a record; COMMIT records are flushed to stable storage."""
        registry = obs.metrics()
        with self._lock:
            record = LogRecord(self._next_lsn, kind, txn_id, payload or {})
            self._next_lsn += 1
            self._records.append(record)
            registry.counter("oodb.wal.appends").inc()
            if self._file is not None:
                line = record.to_json() + "\n"
                self._file.write(line)
                registry.counter("oodb.wal.bytes").inc(len(line))
                if kind in (COMMIT, CHECKPOINT):
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
        """All records in LSN order (since the last truncation)."""
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

    def truncate(self, keep_from: Optional[int] = None) -> None:
        """Discard the records a durable checkpoint snapshot covers.

        All of them, or those below LSN ``keep_from``: a record another
        thread appended while the snapshot was taken may describe a change
        the snapshot missed, so it stays and is replayed on top (redo is
        idempotent, an ``ITEM`` needs the state it was applied to).
        """
        with self._lock:
            kept = [
                r for r in self._records
                if keep_from is not None and r.lsn >= keep_from and r.kind != CHECKPOINT
            ]
            self._records = deque(kept, self._records.maxlen)
            if self._file is None:
                return
            self._file.close()
            if not kept:
                self._file = open(self._path, "w", encoding="utf-8")
                return
            # A crash before the replace leaves the whole old log, which
            # replays on top of the snapshot just as well.
            tmp_path = self._path + ".tmp"
            with open(tmp_path, "w", encoding="utf-8") as fh:
                fh.writelines(record.to_json() + "\n" for record in kept)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, self._path)
            self._file = open(self._path, "a", encoding="utf-8")

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
