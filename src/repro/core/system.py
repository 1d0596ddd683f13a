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


def collection_gens(db: Database) -> Dict[str, int]:
    """Current ``index_gen`` of every COLLECTION object, by IRS name."""
    from repro.core import collection as collection_module

    return {
        obj.get("irs_name"): int(obj.get("index_gen") or 0)
        for obj in db.instances_of(collection_module.COLLECTION_CLASS)
    }


def checkpoint_coupling(db: Database) -> Dict[str, Any]:
    """Checkpoint the coupling behind ``db``: store commit, then OODB.

    The shared implementation behind ``DocumentSystem.checkpoint`` and
    :meth:`repro.Session.checkpoint` — reads every collection's
    ``index_gen`` from the committed database state, appends one
    incremental store checkpoint recording them, then checkpoints the
    database (its changed objects, then a WAL reset).  Raises
    :class:`~repro.errors.StoreError` when the coupling has no
    single-file store attached (an in-memory system), and
    :class:`~repro.errors.TransactionError`, writing neither half, while
    an explicit transaction is open.
    """
    from repro.core.context import coupling_context
    from repro.errors import StoreError

    context = coupling_context(db)
    store = context.storage
    if store is None:
        raise StoreError(
            "checkpoint requires a durable system (open it with a directory)"
        )
    with db.no_open_transactions():
        stats = store.checkpoint(context.engine, gens=collection_gens(db))
        db.checkpoint()
    return stats


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
        db_dir = os.path.join(directory, "db") if directory else None
        self.db = Database(directory=db_dir)
        self.store = None
        if directory:
            from repro.store import SingleFileStore

            # Reload persisted inverted indexes ("stored in a file system").
            self.store = SingleFileStore(os.path.join(directory, "irs.store"))
            self.engine = self.store.load_engine(
                default_model=model, analyzer=analyzer
            )
        else:
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

    def create_collection(self, name: str, spec_query: str = "", **options: Any) -> DBObject:
        """Create a COLLECTION object (delegates to :meth:`repro.Session.create_collection`)."""
        return self.session.create_collection(name, spec_query, **options)

    def index_collection(self, collection_obj: DBObject, **options: Any) -> bool:
        """Run ``indexObjects`` on a collection (via the default session)."""
        return self.session.index(collection_obj, **options)

    # -- durability -----------------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Make the current IRS + database state durable; returns stats.

        Appends one incremental checkpoint to
        ``<directory>/irs.store`` (sealed segments already on disk are
        referenced, not rewritten) with the database ``index_gen`` of every
        collection recorded in the manifest, then checkpoints the OODB
        (its changed objects, then a WAL reset).  The ordering matters: generations are
        read from the committed database state *before* the store commit,
        so a crash at any point leaves either a manifest that matches the
        database or one that is detectably older — never newer (see
        :meth:`_recover_coupling`).

        A purely in-memory system has nothing to persist and raises
        :class:`~repro.errors.StoreError`.
        """
        return checkpoint_coupling(self.db)

    def pack(self) -> Dict[str, Any]:
        """Checkpoint, then compact both store files offline; returns stats.

        Copies only live records into fresh files that atomically replace
        ``irs.store`` and ``db/objects.store`` (``stats["objects"]``),
        reclaiming the dead space incremental checkpoints leave behind
        (``health()["storage"]["dead_ratio"]`` tells when this is worth
        doing).  Durable systems only.
        """
        from repro.errors import StoreError

        if self.store is None:
            raise StoreError("pack requires the single-file store")
        self.checkpoint()
        return dict(self.store.pack(), objects=self.db.pack())

    def _recover_coupling(self) -> None:
        """Reconcile the recovered IRS store with the recovered database.

        The database WAL is ground truth.  Every COLLECTION object carries
        an ``index_gen`` bumped under the WAL whenever its ``doc_map`` is
        rewritten; the store manifest records the generation each
        collection was last checkpointed at.  A mismatch means the crash
        fell between a WAL commit and the matching store checkpoint — the
        IRS side of that collection is stale, so it is dropped and
        deterministically reindexed from the database (same texts, same
        analyzer: rankings come out bit-identical), and a fresh checkpoint
        brings the store back in sync.  IRS collections whose database
        object did not survive recovery are orphans and are removed.
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

    def search(self, collection_obj: DBObject, irs_query: str, model: Optional[str] = None):
        """Run a pure content query; returns a ranked :class:`repro.ResultSet`."""
        return self.session.query(collection_obj, irs_query, model=model)

    def irs_query(self, collection_obj: DBObject, irs_query: str) -> Dict:
        """Run a pure content query; returns ``{OID: value}``.

        Legacy shape — prefer :meth:`search` / :meth:`repro.Session.query`,
        which return a ranked :class:`repro.ResultSet`.
        """
        return self.session.query(collection_obj, irs_query).to_dict()

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
            storage=storage_stats(self.store, self.engine, self.db),
        )

    # -- bookkeeping ------------------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero both coupling and IRS counters (benchmark hygiene)."""
        self.context.counters.reset()
        self.engine.counters.reset()
        self.engine.reset_cache_stats()

    def close(self) -> None:
        """Persist IRS indexes (when durable) and close the database."""
        for server in self._servers:
            server.stop()
        self._servers = []
        for session in self._sessions:
            session.close()
        self._sessions = []
        with self.db.no_open_transactions():
            if self.store is not None:
                self.store.checkpoint(self.engine, gens=collection_gens(self.db))
            self.db.close()
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "DocumentSystem":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
