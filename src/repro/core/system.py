"""The ``DocumentSystem`` facade: the whole stack assembled.

Wires together the OODBMS, the IRS engine, the SGML loader (with ``Element``
inheriting from ``IRSObject`` so "each document element is a subclass of
database class IRSObject", Section 4.2) and the coupling schema.  This is
the class examples and benchmarks instantiate.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Union

from repro.core.context import CouplingContext, install_coupling
from repro.core.irs_object import IRSOBJECT_CLASS
from repro.irs.analysis import Analyzer
from repro.irs.engine import IRSEngine
from repro.oodb.database import Database
from repro.oodb.objects import DBObject
from repro.sgml.document import Element
from repro.sgml.dtd import DTD
from repro.sgml.loader import SGMLLoader
from repro.sgml.parser import parse_document


def checkpoint_coupling(db: Database) -> Dict[str, Any]:
    """Checkpoint the coupling behind ``db``: both halves in one commit.

    The shared implementation behind ``DocumentSystem.checkpoint`` and
    :meth:`repro.Session.checkpoint` — reads every collection's
    ``index_gen`` from the committed database state and checkpoints the
    database with the IRS engine and those generations: the changed
    objects, the index records and one manifest go to the store file in
    one commit, then the WAL resets.  Raises
    :class:`~repro.errors.StoreError` when the coupling has no single-file
    store attached (an in-memory system), and
    :class:`~repro.errors.TransactionError`, writing nothing, while an
    explicit transaction is open.
    """
    from repro.core.collection import COLLECTION_CLASS
    from repro.core.context import coupling_context
    from repro.errors import StoreError

    context = coupling_context(db)
    if context.storage is None:
        raise StoreError(
            "checkpoint requires a durable system (open it with a directory)"
        )
    with db.no_open_transactions():
        gens = {
            obj.get("irs_name"): int(obj.get("index_gen") or 0)
            for obj in db.instances_of(COLLECTION_CLASS)
        }
        return db.checkpoint(context.engine, gens)


class DocumentSystem:
    """OODBMS + IRS + SGML framework + coupling, ready for documents.

    Parameters
    ----------
    directory:
        When given, the database persists under ``<directory>/db`` and the
        IRS indexes in the single-file store ``<directory>/irs.store``
        (incremental checkpoints, lazy restart — see
        docs/storage-format.md); IRS results come back through the API, as
        in memory.  Default: fully in memory.
    model:
        Default retrieval model: "inquery" (default), "vector" or "boolean".
    analyzer:
        Custom analysis pipeline for all IRS collections.
    storage:
        The durable index format; ``"store"`` (the single-file store) is
        the only one.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        model: str = "inquery",
        analyzer: Optional[Analyzer] = None,
        storage: str = "store",
    ) -> None:
        if storage != "store":
            raise ValueError(f"unknown storage mode {storage!r}")
        self.store = None
        if directory:
            from repro.store import SingleFileStore

            # One file for both halves: the database's objects and the
            # persisted inverted indexes ("stored in a file system").
            os.makedirs(directory, exist_ok=True)
            self.store = SingleFileStore(os.path.join(directory, "irs.store"))
            self.db = Database(directory=os.path.join(directory, "db"), store=self.store)
            self.engine = self.store.load_engine(
                default_model=model, analyzer=analyzer
            )
        else:
            self.db = Database()
            self.engine = IRSEngine(default_model=model, analyzer=analyzer)
        self.context: CouplingContext = install_coupling(self.db, self.engine)
        self.context.storage = self.store
        self.loader = SGMLLoader(self.db, base_class=IRSOBJECT_CLASS)
        if self.store is not None:
            # After the loader: recovery may reindex stale collections,
            # which invokes getText — code the loader just re-attached.
            self._recover_coupling()
        self._dtds: Dict[str, DTD] = {}
        # The default (inline) session: the supported query surface.  Build
        # pooled ones with ``system.open_session(workers=...)``.
        from repro.service.session import Session

        self.session = Session(self.db)
        self._sessions: List[Session] = []
        self._servers: List[Any] = []

    # -- document type management ----------------------------------------------

    def register_dtd(self, dtd: DTD) -> List[str]:
        """Register a DTD: one element-type class per declaration."""
        self._dtds[dtd.name or "default"] = dtd
        return self.loader.register_dtd(dtd)

    # -- document management ------------------------------------------------------

    def add_document(
        self, document: Union[str, Element], dtd: Optional[DTD] = None, validate: bool = True
    ) -> DBObject:
        """Parse (when given text), optionally validate, and fragment.

        Returns the root database object of the new document tree.
        """
        if isinstance(document, str):
            root = parse_document(document, dtd=dtd if validate else None)
        else:
            root = document
            if validate and dtd is not None:
                dtd.apply_defaults(root)
                dtd.validate(root)
        return self.loader.load_document(root)

    def delete_document(self, root: DBObject) -> int:
        """Remove a whole document tree; returns objects deleted."""
        return self.loader.delete_document(root)

    # -- collections ----------------------------------------------------------------

    def open_session(self, workers: int = 0, config: Any = None):
        """Open a new :class:`repro.Session` on this system.

        ``workers=0`` gives the classic inline mode; ``workers>=1`` starts
        an embedded worker pool with cross-request batching.  Pooled
        sessions opened here are closed with the system.
        """
        from repro.service.session import Session

        session = Session(self.db, workers=workers, config=config)
        if session.pooled:
            self._sessions.append(session)
        return session

    def serve(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        workers: int = 0,
        config: Any = None,
    ):
        """Start a :class:`~repro.net.server.DocumentServer` on this system.

        ``workers>=1`` opens a pooled session for the server (closed with
        the system) so concurrent remote clients batch through one
        window; ``workers=0`` serves through the default inline session
        (paper semantics, one request at a time per connection).  With
        ``port`` omitted (or 0) the OS picks a free port — read it from
        ``server.address``.  The server is stopped by
        :meth:`close`; connect with
        ``repro.connect(f"tcp://{host}:{port}")``.
        """
        from repro.net.config import ServerConfig
        from repro.net.server import DocumentServer

        if config is None:
            config = ServerConfig(
                host=host if host is not None else "127.0.0.1",
                port=port if port is not None else 0,
            )
        elif host is not None or port is not None:
            raise ValueError("pass either config= or host/port, not both")
        session = self.open_session(workers=workers) if workers else self.session
        server = DocumentServer(self, config=config, session=session)
        server.start()
        self._servers.append(server)
        return server

    # -- durability -----------------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Make the current IRS + database state durable; returns stats.

        One commit of ``<directory>/irs.store`` (see
        :func:`checkpoint_coupling`): the objects changed since the last
        checkpoint, the collections' new records (sealed segments already
        on disk are referenced, not rewritten), the database ``index_gen``
        of every collection and one manifest, then a WAL reset.

        A purely in-memory system has nothing to persist and raises
        :class:`~repro.errors.StoreError`.
        """
        return checkpoint_coupling(self.db)

    def pack(self) -> Dict[str, Any]:
        """Checkpoint, then compact the store file offline; returns stats.

        Copies only live records into a fresh file that atomically
        replaces ``irs.store`` — the objects and each collection's
        documents as one batch each — reclaiming the dead space
        incremental checkpoints leave behind
        (``health()["storage"]["needs_pack"]`` tells when this is worth
        doing).  Durable systems only.
        """
        from repro.errors import StoreError

        if self.store is None:
            raise StoreError("pack requires the single-file store")
        self.checkpoint()
        return self.store.pack()

    def _recover_coupling(self) -> None:
        """Reconcile the IRS half with WAL records past the checkpoint.

        A checkpoint commits both halves at once, so the store's ``gens``
        match the objects it holds; only committed WAL records past its
        mark can move the database ahead.  Every COLLECTION object carries
        an ``index_gen`` bumped under the WAL whenever its ``doc_map`` is
        rewritten: a collection whose recovered generation differs from
        the stored one is dropped and deterministically reindexed from
        the database (same texts, same analyzer: rankings come out
        bit-identical), and a fresh checkpoint brings the store back in
        sync.  IRS collections whose database object did not survive
        recovery are orphans and are removed.
        """
        from repro.core import collection as collection_module

        stored_gens = self.store.gens()
        db_objects: Dict[str, DBObject] = {}
        for obj in self.db.instances_of(collection_module.COLLECTION_CLASS):
            db_objects[obj.get("irs_name")] = obj
        dirty = False
        for name in list(self.engine.collection_names()):
            if name not in db_objects:
                self.engine.drop_collection(name)
                dirty = True
        for name, obj in db_objects.items():
            gen = int(obj.get("index_gen") or 0)
            if self.engine.has_collection(name) and stored_gens.get(name, 0) == gen:
                continue
            self._reindex_collection(obj, name)
            dirty = True
        if dirty:
            self.checkpoint()

    def _reindex_collection(self, obj: DBObject, name: str) -> None:
        """Rebuild one stale IRS collection from recovered database state."""
        if self.engine.has_collection(name):
            self.engine.drop_collection(name)
        self.engine.create_collection(name)
        # Replay the WAL-durable doc_map rather than re-evaluating the
        # specification query: membership may have been modified
        # incrementally (insertObject/propagateUpdates) since the last
        # indexObjects, and recovery must reproduce exactly the state the
        # database committed, not what the spec would select today.
        from repro.core.collection import member_keys
        from repro.core.updates import rebuild

        with self.db.autocommit_group():
            rebuild(obj, member_keys(obj))

    # -- querying -----------------------------------------------------------------------

    def query(self, text: str, bindings: Optional[Dict[str, Any]] = None) -> List[tuple]:
        """Run a mixed OODBMS query (content predicates via getIRSValue)."""
        return self.session.execute(text, bindings)

    def explain(self, text: str, bindings: Optional[Dict[str, Any]] = None):
        """Execute a mixed query under a tracer; returns an ExplainResult.

        ``result.render()`` prints the optimizer plan, execution counters,
        and the cross-layer stage tree (OODB evaluation, coupling methods,
        IRS scoring) with per-stage timings.
        """
        return self.session.explain(text, bindings)

    def health(self, slo_seconds: Optional[float] = None) -> Dict[str, Any]:
        """Overload health report: admission, merges, memtable, latency.

        ``slo_seconds`` is the latency objective the slow-ratio is measured
        against (default :data:`repro.obs.health.DEFAULT_SLO_SECONDS`).
        See :mod:`repro.obs.health` for the report's structure and the
        ``ok`` / ``degraded`` / ``overloaded`` verdict rules.
        """
        from repro.obs.health import DEFAULT_SLO_SECONDS, build_health, storage_stats

        services = [
            session.service
            for session in self._sessions
            if session.service is not None
        ]
        return build_health(
            engine=self.engine,
            services=services,
            slo_seconds=(
                DEFAULT_SLO_SECONDS if slo_seconds is None else slo_seconds
            ),
            servers=self._servers,
            storage=storage_stats(self.store, self.engine),
        )

    # -- bookkeeping ------------------------------------------------------------------------

    def close(self) -> None:
        """Checkpoint (when durable) and close the database and the store."""
        for server in self._servers:
            server.stop()
        self._servers = []
        for session in self._sessions:
            session.close()
        self._sessions = []
        with self.db.no_open_transactions():
            if self.store is not None:
                self.checkpoint()
            self.db.close()
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "DocumentSystem":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
