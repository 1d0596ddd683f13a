"""The OODBMS facade.

:class:`Database` wires schema, object store, WAL, lock manager, index
catalog and query processor into the single entry point applications use.
It supports two persistence modes:

* **ephemeral** (``Database()``) — everything in memory and nothing logged
  (there is nothing to recover; rollback reads the transaction's undo
  list); used by tests and short-lived experiments;
* **durable** (``Database(directory=...)``) — a WAL in a directory plus
  an image in a store file (:class:`repro.store.SingleFileStore`):
  :meth:`checkpoint` appends the objects changed since the previous one
  in one commit of that file and resets the log in place, and re-opening
  the directory recovers committed state.  A ``DocumentSystem`` hands its
  ``irs.store`` over (``store=``), so both halves of the coupling commit
  together; a bare database keeps ``objects.store`` in its directory.

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
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.errors import RecoveryError, SchemaError, TransactionError
from repro.memo import Memo
from repro.oodb import wal as wal_records
from repro.oodb.indexes import AttributeIndex, IndexCatalog
from repro.oodb.locks import LockManager, LockMode
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID, OIDAllocator
from repro.oodb.schema import ClassDefinition, Schema
from repro.oodb.store import ObjectStore, _StoredObject, decode_value, encode_value
from repro.oodb.transactions import Transaction
from repro.oodb.wal import WriteAheadLog
from repro.store import SingleFileStore

logger = logging.getLogger(__name__)

_UNWRITTEN = object()  # read_attribute: the attribute has no stored value

#: The record kinds recovery redoes (the others delimit transactions).
_REDONE = {wal_records.CREATE, wal_records.WRITE, wal_records.ITEM,
           wal_records.DELETE, wal_records.SCHEMA}

_OBJECTS_FILE = "objects.store"  # a bare database's store file
_WAL_FILE = "wal.log"


class Database:
    """An object database with transactions, indexes, and a query language."""

    def __init__(self, directory: Optional[str] = None, lock_timeout: float = 5.0, store=None) -> None:
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
        #: ``repro.sgml.loader``'s columns, per :meth:`column_version`; statements by text.
        self.column_memo = Memo(64, "oodb.column_cache.hits", "oodb.column_cache.misses",
                                "oodb.column_cache.evictions")
        self.statement_memo = Memo(1024, "oodb.statement_cache.hits", "oodb.statement_cache.misses",
                                   "oodb.statement_cache.evictions")

        self._storage: Optional[SingleFileStore] = store  # see close()
        self._owns_storage = store is None
        self._wal: Optional[WriteAheadLog] = None  # a database in memory logs nothing
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            objects_path = os.path.join(directory, _OBJECTS_FILE)
            created = store is None and not os.path.exists(objects_path)
            if store is None:
                self._storage = SingleFileStore(objects_path)
            image = self._storage.load_objects(self._store)
            self._allocator.advance_to(image.get("oid_high_water", 0))
            self._restore_schema(image.get("schema", []))
            mark = image.get("wal_mark", 0)
            self._wal = WriteAheadLog(os.path.join(directory, _WAL_FILE), mark=mark)
            first = next(self._wal.records(), None)
            if not image and first is not None and first.lsn > 1:
                # A checkpoint reset the log, and its image is not in this store.
                self._wal.close()
                if self._owns_storage:
                    self._storage.close()
                if created:  # a refused open leaves the directory as it was
                    os.remove(objects_path)
                raise RecoveryError(
                    f"{directory}: the WAL starts at LSN {first.lsn}, past a checkpoint "
                    f"whose image was not loaded (open it with that image's store=)"
                )
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
            self._log(wal_records.BEGIN, txn)
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
        self._log(wal_records.COMMIT if committed else wal_records.ABORT, txn)
        self._locks.release_all(txn.txn_id)
        with self._txn_gate:
            self._open_txns.discard(txn)
        if getattr(self._local, "txn", None) is txn:
            self._local.txn = None
        obs.metrics().counter(
            "oodb.txn.commits" if committed else "oodb.txn.aborts"
        ).inc()

    @contextmanager
    def no_open_transactions(self) -> Iterator[None]:
        """Hold off :meth:`begin` while the caller persists state.

        Raises :class:`TransactionError`, before anything is written,
        while an explicit transaction is open on any thread: a checkpoint
        would persist its uncommitted writes, and they would survive its
        rollback.  :meth:`checkpoint` and :meth:`close` run under it, and
        so does a coupling's checkpoint and close.
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

    def _log(
        self,
        kind: str,
        txn: Optional[Transaction],
        payload: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        """Append a record under ``txn``: every record is logged here.

        With no transaction the record is a mutation already applied to
        the store, and autocommitted: alone, BEGIN to COMMIT; inside
        :meth:`autocommit_group`, in the group's transaction.  Only a
        durable database logs: without a directory there is nothing to
        recover, and this returns before ``payload`` builds the payload.
        """
        wal = self._wal
        if wal is None:
            return
        if txn is None:
            group = getattr(self._local, "group", None)
            if group is None:
                self._autocommit(kind, payload())
                return
            if not group:
                group.append(Transaction(self))
                wal.append(wal_records.BEGIN, group[0].txn_id)
            txn = group[0]
        wal.append(kind, txn.txn_id, None if payload is None else payload())

    def _autocommit(self, kind: str, payload: Dict[str, Any]) -> None:
        """Log one record as a transaction of its own: BEGIN, it, COMMIT."""
        txn_id = Transaction(self).txn_id
        self._wal.append(wal_records.BEGIN, txn_id)
        self._wal.append(kind, txn_id, payload)
        self._wal.append(wal_records.COMMIT, txn_id)

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
        group: List[Transaction] = []
        self._local.group = group
        try:
            yield
        finally:
            self._local.group = None
            if group:
                self._log(wal_records.COMMIT, group[0])

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------

    def create_object(self, class_name: str, **attributes: Any) -> DBObject:
        """Create an instance of ``class_name``; keyword args set attributes
        (logged inside its one ``CREATE`` record)."""
        self._check_values([(class_name, attributes)])
        oid = self._allocator.allocate()
        self._create_checked([(oid, class_name, attributes)])
        return DBObject(self, oid, class_name)

    def allocate_oids(self, count: int) -> List[OID]:
        """The next ``count`` OIDs, for :meth:`create_objects`."""
        return [self._allocator.allocate() for _ in range(count)]

    def create_objects(self, entries: Sequence[Tuple[OID, str, Dict[str, Any]]]) -> None:
        """Create an object per ``(oid from allocate_oids, class, attributes)``,
        each as :meth:`create_object` would, taking over the dictionaries.

        Attributes may refer to objects of the batch.  No object is created
        unless every value type-checks; types and indexes are looked up
        once per class and attribute.
        """
        self._check_values((class_name, attributes) for _oid, class_name, attributes in entries)
        self._create_checked(entries)

    def _check_values(self, objects: Iterable[Tuple[str, Dict[str, Any]]]) -> None:
        """Raise unless each class exists and each value has its attribute's
        declared type (undeclared attributes take any value)."""
        declared: Dict[str, Dict[str, Any]] = {}
        for class_name, attributes in objects:
            if class_name not in declared:
                declared[class_name] = self.schema.all_attributes(class_name)
            for attr, value in attributes.items():
                adef = declared[class_name].get(attr)
                if adef is not None and not adef.check(value):
                    raise SchemaError(
                        f"value {value!r} does not match type {adef.type_name} of "
                        f"{class_name}.{attr}"
                    )

    def _create_checked(self, entries: Sequence[Tuple[OID, str, Dict[str, Any]]]) -> None:
        txn = self._current_txn()
        covering: Dict[Tuple[str, str], List[AttributeIndex]] = {}
        for oid, class_name, attributes in entries:
            if txn is not None:
                self._locks.acquire(txn.txn_id, oid, LockMode.EXCLUSIVE)
                txn.record_undo(self._undo_create, oid)
            self._store.create(oid, class_name, attributes)
            self._log(wal_records.CREATE, txn, lambda: {
                "oid": oid.value,
                "class": class_name,
                "attributes": {k: encode_value(v) for k, v in attributes.items()},
            })
            for attr, value in attributes.items():
                if (class_name, attr) not in covering:
                    covering[class_name, attr] = self._indexes_covering(class_name, attr)
                for index in covering[class_name, attr]:
                    index.insert(value, oid)  # None is not indexed

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
        else:
            self._store.delete(oid)
        self._log(wal_records.DELETE, txn, lambda: {"oid": oid.value})
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

    def write_attribute(self, oid: OID, attr: str, value: Any) -> None:
        """Write ``attr``; type-checked when declared, logged, index-maintained."""
        class_name = self._store.class_of(oid)
        self._check_values([(class_name, {attr: value})])
        old_value = self._store.read(oid, attr)
        txn = self._current_txn()
        if txn is not None:
            self._locks.acquire(txn.txn_id, oid, LockMode.EXCLUSIVE)
            previous = self._store.write(oid, attr, value)
            txn.record_undo(self._undo_write, oid, attr, previous, old_value)
        else:
            self._store.write(oid, attr, value)
        self._log(wal_records.WRITE, txn, lambda: {
            "oid": oid.value, "attr": attr, "value": encode_value(value),
        })
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
        txn = self._current_txn()
        if txn is not None:
            self._locks.acquire(txn.txn_id, oid, LockMode.EXCLUSIVE)
        try:
            version, token = self._store.write_item(oid, attr, path, value, delete)
        except TypeError as exc:  # a non-dict value sits on the path
            raise SchemaError(str(exc)) from exc
        if txn is not None:
            txn.record_undo(self._undo_write_item, oid, token)

        def payload() -> Dict[str, Any]:
            item = {"oid": oid.value, "attr": attr, "path": [encode_value(key) for key in path]}
            if not delete:
                item["value"] = encode_value(value)
            return item

        self._log(wal_records.ITEM, txn, payload)
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

    def column_version(self, attributes: Sequence[str]) -> Optional[tuple]:
        """The token (taken as :meth:`write_version` is) of values derived from ``attributes``:
        their write versions, the schema generation, the live set's size and deletes (between
        equal deletes only creates and restores run).  None in an explicit transaction."""
        if self._current_txn() is not None:
            return None
        return (len(self._store), self._store.deletions, self.schema.generation,
                *[self._store.attribute_versions.get(attr, 0) for attr in attributes])

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

    def checkpoint(self, engine=None, gens: Optional[Dict[str, int]] = None) -> Optional[Dict[str, Any]]:
        """Commit the objects changed since the last checkpoint to the store
        file, then reset the WAL (durable mode only); returns the store's
        checkpoint stats.

        A coupling passes its IRS ``engine`` and the collections' index
        ``gens``: they go in the same manifest, one commit for both halves
        (:meth:`repro.store.SingleFileStore.checkpoint`).
        """
        with self.no_open_transactions():
            if self._storage is None:
                return None
            started = time.perf_counter()
            with obs.tracer().span("oodb.checkpoint", objects=len(self._store)) as span:
                # Every writer changes the store, then logs: a record below the
                # mark is in the batches, one from the mark on may not be.
                mark = self._wal.next_lsn
                high_water = self._allocator.high_water_mark
                header = {"schema": self._schema_payload(), "oid_high_water": high_water, "wal_mark": mark}
                stats = self._storage.checkpoint(engine, gens, objects=(self._store, header))
                self._wal.reset(mark)
                span.set_attribute("objects_written", stats["objects_written"])
            elapsed = time.perf_counter() - started
            registry = obs.metrics()
            registry.counter("oodb.checkpoints").inc()
            registry.counter("oodb.checkpoint.objects").inc(stats["objects_written"])
            registry.histogram("oodb.checkpoint.seconds").observe(elapsed)
            logger.info(
                "checkpoint of %s: %d of %d objects in %.1f ms",
                self._directory, stats["objects_written"], len(self._store), elapsed * 1000.0,
            )
            return stats

    def _schema_payload(self) -> List[Dict[str, Any]]:
        """Class structure + index catalog for the image's manifest section.

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
        """Release file handles; refused while a transaction is open (see
        :meth:`no_open_transactions`).  A database that opened its own
        store file checkpoints first; one given a store leaves the last
        checkpoint to the store's owner (``DocumentSystem.close``)."""
        if self._closed:
            return
        with self.no_open_transactions():
            if self._owns_storage and self._storage is not None:
                self.checkpoint()
                self._storage.close()
            if self._wal is not None:
                self._wal.close()
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
                    self.schema.add_attribute(
                        payload["class"], payload["attr"], payload["type"], payload.get("default")
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
                        self._store.create(oid, payload["class"], {
                            k: decode_value(v) for k, v in attributes.items()
                        })
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
        self.schema.add_attribute(class_name, attr, type_name, default)
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
        """Append a committed SCHEMA record: DDL auto-commits, as its own
        transaction even inside an explicit one or an autocommit group, so
        the definition a rollback leaves live is the one recovery restores."""
        if self._wal is not None:
            self._autocommit(wal_records.SCHEMA, payload)
