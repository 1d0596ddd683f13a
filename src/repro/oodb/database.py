"""The OODBMS facade.

:class:`Database` wires schema, object store, WAL, lock manager, index
catalog and query processor into the single entry point applications use.
It supports two persistence modes:

* **ephemeral** (``Database()``) — everything in memory, WAL in memory too;
  used by tests and short-lived experiments;
* **durable** (``Database(directory=...)``) — an object file plus a WAL in
  a directory; :meth:`checkpoint` appends the objects changed since the
  previous one to ``objects.store`` and resets the log in place, and
  re-opening the directory recovers committed state.

Concurrency: operations inside an explicit transaction take strict-2PL
locks; autocommitted single operations bypass the lock manager (the
single-writer fast path used by the benchmarks).
"""

from __future__ import annotations

import logging
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro import obs
from repro.errors import SchemaError, TransactionError
from repro.oodb import wal as wal_records
from repro.oodb.indexes import AttributeIndex, IndexCatalog
from repro.oodb.locks import LockManager, LockMode
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID, OIDAllocator
from repro.oodb.schema import ClassDefinition, Schema
from repro.oodb.store import ObjectFile, ObjectStore, _StoredObject, load_snapshot
from repro.oodb.store import decode_value, encode_value
from repro.oodb.transactions import Transaction
from repro.oodb.wal import WriteAheadLog

logger = logging.getLogger(__name__)

_UNWRITTEN = object()  # read_attribute: the attribute has no stored value

#: The record kinds recovery redoes (the others delimit transactions).
_REDONE = {wal_records.CREATE, wal_records.WRITE, wal_records.ITEM,
           wal_records.DELETE, wal_records.SCHEMA}

_OBJECTS_FILE = "objects.store"
_SNAPSHOT_FILE = "snapshot.json"  # written by older builds; imported, never written
_WAL_FILE = "wal.log"


class Database:
    """An object database with transactions, indexes, and a query language."""

    def __init__(self, directory: Optional[str] = None, lock_timeout: float = 5.0) -> None:
        self.schema = Schema()
        self._store = ObjectStore()
        self._allocator = OIDAllocator()
        self._locks = LockManager(timeout=lock_timeout)
        self.indexes = IndexCatalog()
        self._directory = directory
        self._local = threading.local()
        self._closed = False
        #: Explicit transactions begun and not yet finished, on any thread;
        #: the gate is held across a checkpoint, so none begins during one.
        self._open_txns: Set[Transaction] = set()
        self._txn_gate = threading.RLock()

        self._objects: Optional[ObjectFile] = None
        if directory is None:
            self._wal = WriteAheadLog()
        else:
            os.makedirs(directory, exist_ok=True)
            self._objects = ObjectFile(os.path.join(directory, _OBJECTS_FILE))
            snapshot_path = os.path.join(directory, _SNAPSHOT_FILE)
            image = self._objects.load(self._store) or (
                load_snapshot(snapshot_path, self._store) if os.path.exists(snapshot_path) else {}
            )
            self._allocator.advance_to(image.get("oid_high_water", 0))
            self._restore_schema(image.get("schema", []))
            mark = image.get("wal_mark", 0)
            self._wal = WriteAheadLog(os.path.join(directory, _WAL_FILE), mark=mark)
            self._replay_wal()
            self._rebuild_indexes()

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start an explicit transaction bound to the calling thread."""
        if self._current_txn() is not None:
            raise TransactionError("a transaction is already active on this thread")
        txn = Transaction(self)
        with self._txn_gate:
            self._wal.append(wal_records.BEGIN, txn.txn_id)
            self._open_txns.add(txn)
        self._local.txn = txn
        obs.metrics().counter("oodb.txn.begins").inc()
        return txn

    def _current_txn(self) -> Optional[Transaction]:
        txn = getattr(self._local, "txn", None)
        if txn is not None and not txn.is_active:
            self._local.txn = None
            return None
        return txn

    def _finish_transaction(self, txn: Transaction, committed: bool) -> None:
        """Called by Transaction.commit/rollback."""
        kind = wal_records.COMMIT if committed else wal_records.ABORT
        self._wal.append(kind, txn.txn_id)
        self._locks.release_all(txn.txn_id)
        with self._txn_gate:
            self._open_txns.discard(txn)
        if getattr(self._local, "txn", None) is txn:
            self._local.txn = None
        obs.metrics().counter(
            "oodb.txn.commits" if committed else "oodb.txn.aborts"
        ).inc()

    def in_transaction(self) -> bool:
        """True when an explicit transaction is active on this thread."""
        return self._current_txn() is not None

    @contextmanager
    def no_open_transactions(self) -> Iterator[None]:
        """Hold off :meth:`begin` while the caller persists state.

        Raises :class:`TransactionError`, before anything is written,
        while an explicit transaction is open on any thread: a checkpoint
        would persist its uncommitted writes, and they would survive its
        rollback.  :meth:`checkpoint`, :meth:`pack` and :meth:`close` run
        under it, and so does a coupling checkpoint's store half.
        """
        with self._txn_gate:
            if self._open_txns:
                raise TransactionError(
                    f"{len(self._open_txns)} transaction(s) open: commit or "
                    "roll back before a checkpoint"
                )
            yield

    def lock_exclusive(self, oid: OID) -> None:
        """X-lock ``oid`` under the current transaction without writing it.

        Used by update propagation to claim the collection object *before*
        touching the IRS engine, so a deadlock/timeout abort can only happen
        while the engine is still untouched.  No-op outside a transaction
        (autocommit operations lock per-statement anyway).
        """
        txn = self._current_txn()
        if txn is not None:
            self._locks.acquire(txn.txn_id, oid, LockMode.EXCLUSIVE)

    def _log_autocommit(self, kind: str, payload: Dict[str, Any]) -> None:
        """Log one autocommitted mutation (already applied to the store).

        Alone it is its own implicit transaction, BEGIN to COMMIT; inside
        :meth:`autocommit_group` it joins the group's transaction.
        """
        group = getattr(self._local, "group", None)
        if group is None:
            txn_id = Transaction(self).txn_id
            self._wal.append(wal_records.BEGIN, txn_id)
            self._wal.append(kind, txn_id, payload)
            self._wal.append(wal_records.COMMIT, txn_id)
            return
        if not group:
            group.append(Transaction(self).txn_id)
            self._wal.append(wal_records.BEGIN, group[0])
        self._wal.append(kind, group[0], payload)

    @contextmanager
    def autocommit_group(self) -> Iterator[None]:
        """Log this thread's autocommitted writes as one implicit transaction.

        Statement-level autocommit: the writes a query statement causes
        (buffered IRS results, derived values, a forced propagation) share
        one BEGIN ... COMMIT, so a durable database syncs once per
        statement instead of once per write.  BEGIN is logged with the
        first write; a block that writes nothing logs nothing.  The writes
        apply to the store at once and stay applied if the block raises
        (there is no undo log — each is an autocommit), so COMMIT is logged
        either way.  Inside an explicit transaction or an enclosing group
        the block just runs: its writes are grouped already.
        """
        if self._current_txn() is not None or getattr(self._local, "group", None) is not None:
            yield
            return
        group: List[int] = []
        self._local.group = group
        try:
            yield
        finally:
            self._local.group = None
            if group:
                self._wal.append(wal_records.COMMIT, group[0])

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------

    def create_object(self, class_name: str, **attributes: Any) -> DBObject:
        """Create an instance of ``class_name``; keyword args set attributes
        (logged inside its one ``CREATE`` record)."""
        self.schema.get_class(class_name)  # validates existence
        for attr, value in attributes.items():
            self._check_type(class_name, attr, value)
        oid = self._allocator.allocate()
        encoded = {k: encode_value(v) for k, v in attributes.items()}
        payload = {"oid": oid.value, "class": class_name, "attributes": encoded}
        txn = self._current_txn()
        if txn is not None:
            self._locks.acquire(txn.txn_id, oid, LockMode.EXCLUSIVE)
            txn.record_undo(self._undo_create, oid)
            self._store.create(oid, class_name, attributes)
            self._wal.append(wal_records.CREATE, txn.txn_id, payload)
        else:
            self._store.create(oid, class_name, attributes)
            self._log_autocommit(wal_records.CREATE, payload)
        for attr, value in attributes.items():
            self._reindex_attribute(oid, class_name, attr, None, value)
        return DBObject(self, oid, class_name)

    def _undo_create(self, oid: OID) -> None:
        if self._store.exists(oid):
            stored = self._store.delete(oid)
            self._unindex_object(oid, stored.class_name, stored.attributes)

    def delete_object(self, obj_or_oid: Any) -> None:
        """Delete an object; its attribute values are unindexed."""
        oid = obj_or_oid.oid if isinstance(obj_or_oid, DBObject) else obj_or_oid
        txn = self._current_txn()
        class_name = self._store.class_of(oid)
        attributes = self._store.read_all(oid)
        if txn is not None:
            self._locks.acquire(txn.txn_id, oid, LockMode.EXCLUSIVE)
            stored = self._store.delete(oid)
            txn.record_undo(self._undo_delete, oid, stored)
            self._wal.append(wal_records.DELETE, txn.txn_id, {"oid": oid.value})
        else:
            self._store.delete(oid)
            self._log_autocommit(wal_records.DELETE, {"oid": oid.value})
        self._unindex_object(oid, class_name, attributes)

    def _undo_delete(self, oid: OID, stored: _StoredObject) -> None:
        self._store.restore(oid, stored)
        self._index_object(oid, stored.class_name, stored.attributes)

    def get_object(self, oid: OID) -> DBObject:
        """A handle on the object with ``oid`` (must exist)."""
        return DBObject(self, oid, self._store.class_of(oid))

    def object_exists(self, oid: OID) -> bool:
        """True when ``oid`` denotes a live object."""
        return self._store.exists(oid)

    def class_of(self, oid: OID) -> str:
        """The class name of the object with ``oid`` (must exist)."""
        return self._store.class_of(oid)

    def object_count(self) -> int:
        """Number of live objects."""
        return len(self._store)

    # ------------------------------------------------------------------
    # Attribute access
    # ------------------------------------------------------------------

    def read_attribute(self, oid: OID, attr: str) -> Any:
        """Read ``attr`` of the object, falling back to the schema default."""
        class_name = self._store.class_of(oid)
        txn = self._current_txn()
        if txn is not None:
            self._locks.acquire(txn.txn_id, oid, LockMode.SHARED)
        value = self._store.read(oid, attr, _UNWRITTEN)
        if value is not _UNWRITTEN:
            return value
        if self.schema.has_attribute(class_name, attr):
            return self.schema.resolve_attribute(class_name, attr).default
        return None  # undeclared attributes read as None

    def read_column(self, oids: Iterable[OID], attr: str) -> Dict[OID, Any]:
        """``{oid: read_attribute(oid, attr)}`` for every OID, in one store pass.

        The same values, defaults, errors and shared locks as
        :meth:`read_attribute`; the transaction is looked up once, not once
        per object.
        """
        txn = self._current_txn()
        if txn is not None:
            oids = list(oids)
            for oid in oids:
                self._store.class_of(oid)  # a missing object raises before locking
                self._locks.acquire(txn.txn_id, oid, LockMode.SHARED)
        column = self._store.read_column(oids, attr, _UNWRITTEN)
        for oid, value in column.items():
            if value is _UNWRITTEN:
                column[oid] = self.read_attribute(oid, attr)  # the default
        return column

    def _check_type(self, class_name: str, attr: str, value: Any) -> None:
        adef = self.schema.find_attribute(class_name, attr)
        if adef is not None and not adef.check(value):
            raise SchemaError(
                f"value {value!r} does not match type {adef.type_name} of "
                f"{class_name}.{attr}"
            )

    def write_attribute(self, oid: OID, attr: str, value: Any) -> None:
        """Write ``attr``; type-checked when declared, logged, index-maintained."""
        class_name = self._store.class_of(oid)
        self._check_type(class_name, attr, value)
        old_value = self._store.read(oid, attr)
        txn = self._current_txn()
        if txn is not None:
            self._locks.acquire(txn.txn_id, oid, LockMode.EXCLUSIVE)
            previous = self._store.write(oid, attr, value)
            txn.record_undo(self._undo_write, oid, attr, previous, old_value)
            self._wal.append(
                wal_records.WRITE,
                txn.txn_id,
                {"oid": oid.value, "attr": attr, "value": encode_value(value)},
            )
        else:
            self._store.write(oid, attr, value)
            self._log_autocommit(
                wal_records.WRITE,
                {"oid": oid.value, "attr": attr, "value": encode_value(value)},
            )
        self._reindex_attribute(oid, class_name, attr, old_value, value)

    def _undo_write(self, oid: OID, attr: str, previous: Any, old_value: Any) -> None:
        if not self._store.exists(oid):
            return  # creation was already undone
        new_value = self._store.read(oid, attr)
        self._store.unwrite(oid, attr, previous)
        class_name = self._store.class_of(oid)
        self._reindex_attribute(oid, class_name, attr, new_value, old_value)

    def write_dict_item(
        self, oid: OID, attr: str, path: Sequence[Any], value: Any
    ) -> int:
        """Set ``attr[path[0]]...[path[-1]] = value`` inside a DICT attribute.

        The item is written in place and logged as one ``ITEM`` record that
        carries only the path and the value, so time and log bytes do not
        depend on the size of the dictionary (a whole-attribute
        :meth:`write_attribute` re-encodes all of it).  Dictionaries missing
        along the path are created.  Transactional like any write: X-locked,
        undone on rollback, redone by recovery.  Returns the object's write
        version after the write (see :meth:`write_version`).

        The stored dictionary is mutated, so hold no iterator over it across
        calls (copy it under :meth:`store_lock` to iterate); attribute
        indexes are not maintained (DICT values are not indexable).
        """
        return self._write_item(oid, attr, path, value, delete=False)

    def delete_dict_item(self, oid: OID, attr: str, path: Sequence[Any]) -> int:
        """Remove ``attr[path[0]]...[path[-1]]`` from a DICT attribute.

        The other half of :meth:`write_dict_item`, with the same cost, locking,
        undo and return value; logged as an ``ITEM`` record without a value.
        Removing an item that is already gone changes nothing.
        """
        return self._write_item(oid, attr, path, None, delete=True)

    def _write_item(
        self, oid: OID, attr: str, path: Sequence[Any], value: Any, delete: bool
    ) -> int:
        path = tuple(path)
        if not path:
            raise ValueError("a dictionary item needs a non-empty key path")
        class_name = self._store.class_of(oid)
        if self.schema.has_attribute(class_name, attr):
            type_name = self.schema.resolve_attribute(class_name, attr).type_name
            if type_name not in ("DICT", "ANY"):
                raise SchemaError(
                    f"{class_name}.{attr} has type {type_name}, not DICT"
                )
        payload = {
            "oid": oid.value,
            "attr": attr,
            "path": [encode_value(key) for key in path],
        }
        if not delete:
            payload["value"] = encode_value(value)
        txn = self._current_txn()
        if txn is not None:
            self._locks.acquire(txn.txn_id, oid, LockMode.EXCLUSIVE)
        try:
            version, token = self._store.write_item(oid, attr, path, value, delete)
        except TypeError as exc:  # a non-dict value sits on the path
            raise SchemaError(str(exc)) from exc
        if txn is not None:
            txn.record_undo(self._undo_write_item, oid, token)
            self._wal.append(wal_records.ITEM, txn.txn_id, payload)
        else:
            self._log_autocommit(wal_records.ITEM, payload)
        return version

    def _undo_write_item(self, oid: OID, token: tuple) -> None:
        if self._store.exists(oid):  # else creation was already undone
            self._store.unwrite_item(oid, token)

    def store_lock(self) -> "threading.RLock":
        """The object store's re-entrant write lock.

        Every attribute and item mutation takes it, so the thread holding it
        sees no change and shows none: a writer holds it over a batch of
        item writes that readers must see whole or not at all, a reader
        while it copies a dictionary that items are written into in place.
        Innermost lock — wait for no database lock and no engine lock under it.
        """
        return self._store._write_lock

    def write_version(self, oid: OID) -> int:
        """Count of attribute mutations applied to the object, undo included.

        Process-local and monotone.  A cache derived from the object's
        attributes is current iff the version it was built at — taken
        *before* reading the attributes — still equals this.
        """
        return self._store.version_of(oid)

    def read_attributes(self, oid: OID) -> Dict[str, Any]:
        """All attributes of the object, defaults filled in."""
        class_name = self._store.class_of(oid)
        values = {
            name: adef.default for name, adef in self.schema.all_attributes(class_name).items()
        }
        values.update(self._store.read_all(oid))
        return values

    # ------------------------------------------------------------------
    # Extents and scans
    # ------------------------------------------------------------------

    def instances_of(self, class_name: str, include_subclasses: bool = True) -> List[DBObject]:
        """All live instances of ``class_name`` (plus subclasses by default)."""
        class_names = (
            self.schema.subclasses(class_name) if include_subclasses else [class_name]
        )
        objects: List[DBObject] = []
        for cname in class_names:
            for oid in sorted(self._store.extent(cname)):
                objects.append(DBObject(self, oid, cname))
        return objects

    def extent_size(self, class_name: str) -> int:
        """Number of live instances (subclasses included), building no handles."""
        return sum(
            self._store.extent_size(cname) for cname in self.schema.subclasses(class_name)
        )

    def extent_oids(self, class_name: str) -> Set[OID]:
        """OIDs of the live instances (subclasses included), building no handles."""
        return set().union(
            *(self._store.extent(cname) for cname in self.schema.subclasses(class_name))
        )

    def in_extent_order(self, class_name: str, oids: Set[OID]) -> List[OID]:
        """Those of ``oids`` in the extent, in the order of :meth:`instances_of`."""
        return [
            oid
            for cname in self.schema.subclasses(class_name)
            for oid in sorted(oids.intersection(self._store.extent(cname)))
        ]

    def iter_objects(self) -> Iterator[DBObject]:
        """Iterate over every live object."""
        for oid in self._store.all_oids():
            yield DBObject(self, oid, self._store.class_of(oid))

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------

    def create_index(self, class_name: str, attribute: str) -> AttributeIndex:
        """Create an index over ``class_name`` (incl. subclasses) and backfill it."""
        index = self.indexes.create(class_name, attribute)
        for obj in self.instances_of(class_name):
            value = self._store.read(obj.oid, attribute)
            if value is not None:
                index.insert(value, obj.oid)
        return index

    def _indexes_covering(self, class_name: str, attr: str) -> List[AttributeIndex]:
        """Indexes whose class is ``class_name`` or an ancestor of it."""
        if not self.indexes.covers_attribute(attr):
            return []
        return [
            index
            for cdef in self.schema.ancestry(class_name)
            for index in [self.indexes.find(cdef.name, attr)]
            if index is not None
        ]

    def _reindex_attribute(
        self, oid: OID, class_name: str, attr: str, old_value: Any, new_value: Any
    ) -> None:
        for index in self._indexes_covering(class_name, attr):
            if old_value is not None:
                index.remove(old_value, oid)
            if new_value is not None:
                index.insert(new_value, oid)

    def _index_object(self, oid: OID, class_name: str, attributes: Dict[str, Any]) -> None:
        for attr, value in attributes.items():
            for index in self._indexes_covering(class_name, attr):
                index.insert(value, oid)

    def _unindex_object(self, oid: OID, class_name: str, attributes: Dict[str, Any]) -> None:
        for attr, value in attributes.items():
            for index in self._indexes_covering(class_name, attr):
                index.remove(value, oid)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, text: str, bindings: Optional[Dict[str, Any]] = None) -> List[tuple]:
        """Run an ``ACCESS ... FROM ... WHERE ...`` query; returns result rows.

        ``bindings`` supplies values for ``$name`` parameters in the query.
        """
        from repro.oodb.query.evaluator import QueryEvaluator

        return QueryEvaluator(self).run(text, bindings or {})

    def explain(self, text: str, bindings: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Return the optimizer's plan description without executing."""
        from repro.oodb.query.evaluator import QueryEvaluator

        return QueryEvaluator(self).explain(text, bindings or {})

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Append the objects changed since the last checkpoint to the
        object file and reset the WAL (durable mode only)."""
        with self.no_open_transactions():
            if self._objects is not None:
                self._checkpoint(self._objects.commit)

    def pack(self) -> Optional[Dict[str, int]]:
        """Checkpoint by rewriting the object file as the live set alone,
        reclaiming what earlier batches left dead (durable mode only)."""
        with self.no_open_transactions():
            return None if self._objects is None else self._checkpoint(self._objects.pack)

    def _checkpoint(self, commit: Callable[..., Dict[str, int]]) -> Dict[str, int]:
        started = time.perf_counter()
        with obs.tracer().span("oodb.checkpoint", objects=len(self._store)) as span:
            # Every writer changes the store, then logs: a record below the
            # mark is in the batches, one from the mark on may not be.
            mark = self._wal.next_lsn
            high_water = self._allocator.high_water_mark
            header = {"schema": self._schema_payload(), "oid_high_water": high_water, "wal_mark": mark}
            stats = commit(self._store, header)
            self._wal.reset(mark)
            for name, value in stats.items():
                span.set_attribute(name, value)
        elapsed = time.perf_counter() - started
        registry = obs.metrics()
        registry.counter("oodb.checkpoints").inc()
        registry.counter("oodb.checkpoint.objects").inc(stats["objects_written"])
        registry.counter("oodb.checkpoint.bytes").inc(stats["bytes"])
        registry.histogram("oodb.checkpoint.seconds").observe(elapsed)
        logger.info(
            "checkpoint of %s: %d of %d objects in %.1f ms",
            self._directory, stats["objects_written"], len(self._store), elapsed * 1000.0,
        )
        return stats

    def storage_stats(self) -> Optional[Dict[str, Any]]:
        """Size, live and dead bytes of the object file (None in memory)."""
        return None if self._objects is None else self._objects.stats()

    def _schema_payload(self) -> List[Dict[str, Any]]:
        """Class structure + index catalog for the object file's manifest.

        Method implementations are code and are not persisted; indexes are
        recorded structurally and rebuilt (backfilled) at recovery.
        """
        payload = [
            {
                "name": cdef.name,
                "superclass": cdef.superclass,
                "attributes": {a.name: a.type_name for a in cdef.attributes.values()},
            }
            for cdef in (self.schema.get_class(n) for n in self.schema.class_names())
        ]
        payload.append(
            {
                "__indexes__": [
                    {"class": index.class_name, "attribute": index.attribute}
                    for index in self.indexes.all_indexes()
                ]
            }
        )
        return payload

    def _restore_schema(self, payload: List[Dict[str, Any]]) -> None:
        """Re-create classes and remember index definitions for rebuild."""
        self._pending_index_rebuild: List[Dict[str, str]] = []
        for entry in payload:
            if "__indexes__" in entry:
                self._pending_index_rebuild = list(entry["__indexes__"])
                continue
            if not self.schema.has_class(entry["name"]):
                self.schema.define_class(
                    entry["name"], entry.get("superclass"), entry.get("attributes") or {}
                )

    def _rebuild_indexes(self) -> None:
        """Re-create and backfill indexes recorded in the durable image.

        Runs after WAL replay so the backfill sees the fully recovered
        object table.  The ``kind`` older builds recorded is ignored: there
        is one index kind.
        """
        for entry in getattr(self, "_pending_index_rebuild", []):
            if self.schema.has_class(entry["class"]):
                self.create_index(entry["class"], entry["attribute"])
        self._pending_index_rebuild = []

    def close(self) -> None:
        """Checkpoint (when durable) and release file handles; refused
        while a transaction is open (see :meth:`no_open_transactions`)."""
        if self._closed:
            return
        with self.no_open_transactions():
            self.checkpoint()
            self._wal.close()
            if self._objects is not None:
                self._objects.close()
            self._closed = True

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _replay_schema(self, payload: Dict[str, Any]) -> None:
        """Redo one SCHEMA record; tolerates classes already in the image."""
        if payload["op"] == "class":
            if not self.schema.has_class(payload["name"]):
                self.schema.define_class(
                    payload["name"],
                    payload.get("superclass"),
                    payload.get("attributes") or {},
                )
        elif payload["op"] == "attribute":
            if self.schema.has_class(payload["class"]):
                cdef = self.schema.get_class(payload["class"])
                if payload["attr"] not in cdef.attributes:
                    cdef.add_attribute(
                        payload["attr"], payload["type"], payload.get("default")
                    )

    def _replay_wal(self) -> None:
        """Redo committed WAL records on top of the loaded object batches."""
        started = time.perf_counter()
        replayed = 0
        with obs.tracer().span("oodb.recovery", wal_records=len(self._wal)) as span:
            committed = self._wal.committed_transactions()
            max_oid = 0
            for record in self._wal.records():
                if record.txn_id not in committed or record.kind not in _REDONE:
                    continue
                payload, replayed = record.payload, replayed + 1
                if record.kind == wal_records.SCHEMA:
                    self._replay_schema(payload)
                    continue
                oid = OID(payload["oid"])
                if record.kind == wal_records.CREATE:
                    max_oid = max(max_oid, oid.value)
                    if not self._store.exists(oid):  # older logs' CREATE has no attributes
                        attributes = payload.get("attributes", {})
                        self._store.load_objects([(oid, payload["class"], attributes)])
                elif not self._store.exists(oid):
                    continue  # deleted later on
                elif record.kind == wal_records.WRITE:
                    self._store.write(oid, payload["attr"], decode_value(payload["value"]))
                elif record.kind == wal_records.ITEM:
                    self._store.write_item(
                        oid,
                        payload["attr"],
                        [decode_value(key) for key in payload["path"]],
                        decode_value(payload.get("value")),
                        delete="value" not in payload,
                    )
                else:
                    self._store.delete(oid)
            self._allocator.advance_to(max_oid + 1)
            span.set_attribute("records_replayed", replayed)
        elapsed = time.perf_counter() - started
        registry = obs.metrics()
        registry.counter("oodb.recovery.runs").inc()
        registry.counter("oodb.recovery.records_replayed").inc(replayed)
        registry.gauge("oodb.recovery.last_seconds").set(elapsed)
        registry.gauge("oodb.recovery.last_records").set(replayed)
        if replayed:
            logger.info(
                "recovered %s: replayed %d committed WAL records in %.1f ms",
                self._directory,
                replayed,
                elapsed * 1000.0,
            )

    # ------------------------------------------------------------------
    # Schema convenience
    # ------------------------------------------------------------------

    def define_class(
        self,
        name: str,
        superclass: Optional[str] = None,
        attributes: Optional[Dict[str, str]] = None,
        methods: Optional[Dict[str, Callable[..., Any]]] = None,
    ) -> ClassDefinition:
        """Define a class, optionally with attributes and methods in one call.

        The structural part of the definition (name, superclass, attribute
        names and types) is WAL-logged so a crash before the next checkpoint
        does not lose the schema the logged objects depend on.  Method
        implementations are code and are never persisted.
        """
        cdef = self.schema.define_class(name, superclass, attributes)
        self._log_schema(
            {
                "op": "class",
                "name": name,
                "superclass": superclass,
                "attributes": dict(attributes or {}),
            }
        )
        for mname, impl in (methods or {}).items():
            cdef.add_method(mname, impl)
        return cdef

    def add_class_attribute(
        self, class_name: str, attr: str, type_name: str, default: Any = None
    ) -> None:
        """Add an attribute to an existing class, WAL-logged like DDL."""
        cdef = self.schema.get_class(class_name)
        if attr in cdef.attributes:
            return
        cdef.add_attribute(attr, type_name, default)
        self._log_schema(
            {
                "op": "attribute",
                "class": class_name,
                "attr": attr,
                "type": type_name,
                "default": default,
            }
        )

    def _log_schema(self, payload: Dict[str, Any]) -> None:
        """Append a committed SCHEMA record (DDL auto-commits)."""
        txn = self._current_txn()
        if txn is not None:
            self._wal.append(wal_records.SCHEMA, txn.txn_id, payload)
        else:
            self._log_autocommit(wal_records.SCHEMA, payload)
