"""``repro.Session`` — the supported entry point of the coupling API.

A session binds a database (usually through a :class:`repro.DocumentSystem`)
to a query surface that returns typed :class:`~repro.service.results.ResultSet`
objects and routes every failure through the :class:`~repro.errors.ReproError`
hierarchy.

Two execution modes, chosen at construction:

``workers=0`` (**inline**, the default)
    Calls run on the caller's thread with the classic coupling semantics of
    the paper — including persistent result-buffer writes on the COLLECTION
    object (Section 4.2).  No service threads exist.

``workers>=1`` (**pooled**)
    Calls are admitted to an embedded
    :class:`~repro.service.executor.DocumentService`: bounded queue,
    cross-request batching with shared snapshots, automatic deadlock retry,
    per-request timeouts.  Built for many concurrent client threads sharing
    one session.  The pooled IRS path relies on the collections' result memos
    instead of the persistent buffer (see :mod:`repro.service.batch`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro import obs
from repro.obs.telemetry import CostProfile, collecting
from repro.core import collection as collection_module
from repro.core import updates
from repro.core.context import CouplingContext, coupling_context
from repro.oodb.database import Database
from repro.oodb.objects import DBObject
from repro.service import batch as batch_module
from repro.service.config import ServiceConfig
from repro.service.executor import BatchItem, DocumentService, _UNSET
from repro.service.results import ResultSet
from repro.errors import ReproError


@contextmanager
def _mapped_errors(mapper: Callable[[BaseException], BaseException]):
    """Route non-Repro failures through ``mapper`` (ReproErrors pass through)."""
    try:
        yield
    except ReproError:
        raise
    except BaseException as exc:
        raise mapper(exc) from exc


class Session:
    """A client's handle onto the coupled document system.

    Construct from a :class:`repro.DocumentSystem` (which owns a default
    inline session as ``system.session``) or directly from a
    :class:`~repro.oodb.database.Database` that has the coupling installed.
    """

    def __init__(
        self,
        source: Union[Database, Any],
        workers: int = 0,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.db: Database = source if isinstance(source, Database) else source.db
        self.context: CouplingContext = coupling_context(self.db)
        if config is None and workers > 0:
            config = ServiceConfig(workers=workers)
        self._service: Optional[DocumentService] = (
            DocumentService(self.db, config) if config is not None else None
        )
        self._collections_by_name: Dict[str, DBObject] = {}

    # -- introspection ------------------------------------------------------

    @property
    def pooled(self) -> bool:
        """True when this session executes through a worker pool."""
        return self._service is not None

    @property
    def service(self) -> Optional[DocumentService]:
        """The embedded service (None for inline sessions)."""
        return self._service

    # -- collection addressing ----------------------------------------------

    def _resolve(self, collection_obj: Union[DBObject, str]) -> DBObject:
        """Accept a COLLECTION object or its name.

        Name addressing is what makes the Session contract
        transport-agnostic — a remote session can only name collections,
        so the local one accepts names too and the same workload code
        runs over either.  Names never rebind (collections are not
        renamed), so the cache needs no invalidation; a miss rescans.
        """
        if not isinstance(collection_obj, str):
            return collection_obj
        cached = self._collections_by_name.get(collection_obj)
        if cached is not None and self.db.object_exists(cached.oid):
            return cached
        for obj in self.db.instances_of(collection_module.COLLECTION_CLASS):
            if obj.get("irs_name") == collection_obj:
                self._collections_by_name[collection_obj] = obj
                return obj
        from repro.errors import UnknownCollectionError

        raise UnknownCollectionError(f"no collection named {collection_obj!r}")

    def _resolve_object(self, obj: Any) -> DBObject:
        """Accept a DBObject, an OID, or an ``"OID<n>"`` string."""
        if isinstance(obj, DBObject):
            return obj
        from repro.oodb.oid import OID

        if isinstance(obj, str):
            obj = OID.parse(obj)
        if isinstance(obj, OID):
            return self.db.get_object(obj)
        oid = getattr(obj, "oid", None)  # e.g. a RemoteElement snapshot
        if isinstance(oid, OID):
            return self.db.get_object(oid)
        raise TypeError(f"cannot resolve {obj!r} to a database object")

    # -- collection management ---------------------------------------------

    def create_collection(
        self, name: str, spec_query: str = "", **options: Any
    ) -> DBObject:
        """Create a COLLECTION object and its encapsulated IRS collection."""
        with _mapped_errors(batch_module.map_coupling_error):
            created = collection_module._create_collection(
                self.db, name, spec_query, **options
            )
        self._collections_by_name[name] = created
        return created

    def collection(self, name: str) -> DBObject:
        """The COLLECTION object for ``name`` (UnknownCollectionError if absent)."""
        return self._resolve(name)

    def collections(self) -> List[str]:
        """Names of every collection in this database, sorted."""
        return sorted(
            obj.get("irs_name")
            for obj in self.db.instances_of(collection_module.COLLECTION_CLASS)
            if obj.get("irs_name")
        )

    def _run(
        self,
        fn: Callable[[], Any],
        label: str,
        mapper: Callable[[BaseException], BaseException] = batch_module.map_coupling_error,
        timeout: Any = _UNSET,
    ) -> Any:
        """Run ``fn`` through the pool (pooled) or on this thread (inline).

        Either way a non-Repro failure reaches the caller through ``mapper``.
        """
        if self._service is not None:
            return self._service.call(fn, label=label, error_mapper=mapper, timeout=timeout)
        with _mapped_errors(mapper):
            return fn()

    def index(self, collection_obj: Union[DBObject, str], **options: Any) -> bool:
        """Run ``indexObjects``: (re)populate the IRS collection."""
        collection_obj = self._resolve(collection_obj)
        return self._run(
            lambda: collection_module.index_objects(collection_obj, **options), "index"
        )

    def propagate(self, collection_obj: Union[DBObject, str]) -> int:
        """Apply pending deferred updates now."""
        collection_obj = self._resolve(collection_obj)
        return self._run(lambda: updates.propagate(collection_obj), "propagate")

    def remove(self, collection_obj: Union[DBObject, str], obj: Any) -> None:
        """Remove ``obj``'s documents from the collection (``deleteObject``).

        Records a DELETE update on the COLLECTION object: under the eager
        policy the object's IRS documents are dropped immediately (a
        tombstone on a segmented index); under the deferred policy the
        removal waits in ``pending_ops`` until the next propagation — a
        query issued with removals pending forces it, exactly like the
        other update kinds (Section 4.6).
        """
        collection_obj = self._resolve(collection_obj)
        obj = self._resolve_object(obj)
        self._run(lambda: collection_module.delete_object(collection_obj, obj), "remove")

    # -- querying -----------------------------------------------------------

    def query(
        self,
        collection_obj: Union[DBObject, str],
        irs_query: str,
        model: Optional[str] = None,
        timeout: Any = _UNSET,
        top_k: Optional[int] = None,
    ) -> ResultSet:
        """``getIRSResult`` as a typed result: ranked hits, best first.

        ``top_k`` asks for only the k best hits; eligible ranked queries
        are scored with block-max early termination (same k-prefix as the
        exhaustive ranking), others fall back to exhaustive scoring and
        truncate.
        """
        collection_obj = self._resolve(collection_obj)
        if self._service is not None:
            return self._service.query(collection_obj, irs_query, model, timeout, top_k)
        return self._query_inline(collection_obj, irs_query, model, top_k)

    def query_batch(
        self, items: Sequence[BatchItem], timeout: Any = _UNSET
    ) -> List[ResultSet]:
        """Run many IRS queries; one :class:`ResultSet` per item, in order.

        Items are ``(collection_obj, irs_query)``,
        ``(collection_obj, irs_query, model)`` or
        ``(collection_obj, irs_query, model, top_k)`` tuples.  Pooled
        sessions execute the batch through one batching window (shared
        snapshots, deduplicated scoring); inline sessions run the items
        sequentially.
        """
        items = [
            (self._resolve(collection_obj), irs_query, model, top_k)
            for collection_obj, irs_query, model, top_k in map(batch_module.unpack, items)
        ]
        if self._service is not None:
            return self._service.query_batch(items, timeout)
        return [self._query_inline(*item) for item in items]

    def _query_inline(
        self,
        collection_obj: DBObject,
        irs_query: str,
        model: Optional[str],
        top_k: Optional[int] = None,
    ) -> ResultSet:
        default_model = collection_obj.get("model")
        irs_name = collection_obj.get("irs_name")
        engine = self.context.engine
        profile = CostProfile() if obs.is_enabled() else None
        started = time.perf_counter()
        request_span = None
        with _mapped_errors(batch_module.map_query_error), collecting(profile):
            with obs.tracer().span(
                "service.request", query=obs.trim(irs_query), mode="inline",
            ) as request_span:
                if top_k is None and (model is None or model == default_model):
                    # The classic path: persistent buffer, default model.
                    values = collection_module._get_irs_result(
                        collection_obj, irs_query
                    )
                    epoch = engine.collection(irs_name).index.epoch
                else:
                    # Model override or top-k request: score directly (the
                    # persistent buffer stores full rankings for the collection
                    # default model only; both cases bypass it).
                    batch_module.propagate_pending(collection_obj, profile)
                    with engine.reading(irs_name):  # the epoch scored against
                        values = collection_module.irs_values(
                            engine, irs_name, irs_query, model, top_k
                        )[0]
                        epoch = engine.collection(irs_name).index.epoch
        result_set = ResultSet.from_values(
            values,
            db=self.db,
            collection=irs_name,
            query=irs_query,
            model=model or default_model,
            epoch=epoch,
        )
        if profile is not None:
            result_set.telemetry = batch_module.request_telemetry(
                "inline", irs_name, irs_query, model or default_model, top_k,
                epoch, profile, request_span, started, started, time.perf_counter(),
            )
        return result_set

    def find_value(
        self, collection_obj: Union[DBObject, str], irs_query: str, obj: Any
    ) -> float:
        """``findIRSValue``: the IRS value of one object (derived if needed)."""
        collection_obj = self._resolve(collection_obj)
        obj = self._resolve_object(obj)
        return self._run(
            lambda: collection_module._find_irs_value(collection_obj, irs_query, obj),
            "find_value",
            batch_module.map_query_error,
        )

    def execute(
        self,
        text: str,
        bindings: Optional[Dict[str, Any]] = None,
        timeout: Any = _UNSET,
    ) -> List[tuple]:
        """Run a mixed OODBMS query (content predicates via ``getIRSValue``)."""
        return self._run(
            lambda: self.db.query(text, bindings), "mixed", batch_module.map_query_error, timeout
        )

    def explain(self, text: str, bindings: Optional[Dict[str, Any]] = None):
        """Execute a mixed query under the tracer; returns an ExplainResult.

        Always runs inline — the explain tree belongs to the calling thread.
        """
        from repro.obs import explain as obs_explain

        with _mapped_errors(batch_module.map_query_error):
            return obs_explain(self.db, text, bindings)

    # -- operations ---------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        """Liveness probe, shaped like the remote one (transport: local)."""
        import repro

        return {
            "pong": True,
            "protocol": None,
            "server_version": repro.__version__,
        }

    def health(self, slo_seconds: Optional[float] = None) -> Dict[str, Any]:
        """Overload health seen from this session (see repro.obs.health)."""
        from repro.obs.health import DEFAULT_SLO_SECONDS, build_health, storage_stats

        return build_health(
            engine=self.context.engine,
            services=[self._service] if self._service is not None else [],
            slo_seconds=(
                DEFAULT_SLO_SECONDS if slo_seconds is None else slo_seconds
            ),
            storage=storage_stats(self.context.storage, self.context.engine),
        )

    def checkpoint(self) -> Dict[str, Any]:
        """Checkpoint the durable store + database; returns commit stats.

        Commits the changed objects and index records to the single-file
        store in one checkpoint (see docs/storage-format.md).  Raises
        :class:`~repro.errors.StoreError` on systems without a store.
        Pooled sessions run it through the worker service so it
        serializes with in-flight index/update work.
        """
        from repro.core.system import checkpoint_coupling

        return self._run(lambda: checkpoint_coupling(self.db), "checkpoint")

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop the worker pool (inline sessions: no-op).

        The database stays open — it belongs to the system, not the session.
        """
        if self._service is not None:
            self._service.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = (
            f"pooled workers={self._service.config.workers}"
            if self._service is not None
            else "inline"
        )
        return f"<Session {mode} db={self.db!r}>"
