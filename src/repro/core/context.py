"""Coupling context: wiring a database to an IRS engine.

The coupling methods run as database methods (invoked on
:class:`~repro.oodb.objects.DBObject` handles) and need a way to reach the
external IRS, the text-mode registry and the derivation-scheme registry.
:class:`CouplingContext` bundles those; :func:`install_coupling` defines the
coupling classes in the database schema and attaches the context to the
database instance.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple

from repro.errors import CouplingError
from repro.irs.engine import IRSEngine

if TYPE_CHECKING:  # pragma: no cover
    from repro.oodb.database import Database
    from repro.oodb.oid import OID

_CONTEXT_ATTR = "_coupling_context"


@dataclass
class CouplingCounters:
    """Instrumentation shared by the whole coupling (reset per experiment).

    Increments on concurrent paths go through :meth:`add`; plain ``+= 1``
    remains fine on single-threaded experiment code but the coupling core
    uses :meth:`add` throughout so the service layer never loses counts.
    """

    get_irs_value_calls: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    derivations: int = 0
    index_runs: int = 0
    documents_indexed: int = 0
    updates_propagated: int = 0
    updates_cancelled: int = 0
    updates_logged: int = 0
    forced_propagations: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, name: str, amount: int = 1) -> None:
        """Atomically add ``amount`` to the counter called ``name``."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def reset(self) -> None:
        with self._lock:
            for name, value in vars(self).items():
                if isinstance(value, int) and not name.startswith("_"):
                    setattr(self, name, 0)


class DecodedBufferView:
    """Process-local decoded mirror of one COLLECTION's persistent buffer.

    The ``buffer`` attribute stores ``{"model|query": {"OID3": 0.7}}``;
    ``entries`` holds the same results keyed by :class:`OID`, decoded at most
    once per key, so a buffer hit costs a dictionary lookup instead of a
    re-parse of every OID string.  ``version`` is the COLLECTION object's
    write version (:meth:`Database.write_version`) that ``entries`` mirrors:
    any write to the object that did not keep the view in step — an
    invalidation by propagation or ``indexObjects``, a transaction undo,
    another code path setting the attribute — leaves the two unequal, and
    :class:`~repro.core.buffer.ResultBuffer` then drops ``entries`` before
    reading.  A published entry dict is never mutated, so readers may hold
    and iterate one without a lock: an amend puts its value in ``amended``
    (only touched under ``lock``), and the next lookup of the whole result
    publishes one merged copy.

    ``generation`` counts the buffer resets seen: item writes change the
    stored dictionary in place, a reset installs a new one, so a change of
    ``source``'s identity marks results computed before an index change.
    ``members`` is ``(write version, OIDs of the doc_map keys)``, validated
    the same way (:func:`repro.core.collection.member_oids`); a buffer write
    that follows it directly moves its tag along, as it does ``version``.
    The view dies with its context: a recovered database starts with none.
    """

    __slots__ = ("lock", "version", "entries", "amended", "source", "generation", "members")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.version = -1
        self.entries: Dict[str, Dict["OID", float]] = {}
        self.amended: Dict[str, Dict["OID", float]] = {}
        self.source: Optional[dict] = None
        self.generation = 0
        self.members: Tuple[int, FrozenSet["OID"]] = (-1, frozenset())


@dataclass
class CouplingContext:
    """Everything coupling methods need besides the target object."""

    engine: IRSEngine
    counters: CouplingCounters = field(default_factory=CouplingCounters)
    #: When set, IRS queries go through result files on disk (the paper's
    #: historical exchange mechanism) instead of the in-process API.
    result_file_directory: Optional[str] = None
    #: The single-file durable store backing this coupling
    #: (:class:`repro.store.SingleFileStore`); None when the system runs
    #: in memory.
    storage: Optional[object] = None
    #: Default update-propagation policy for new collections.
    default_update_policy: str = "deferred"
    #: Ablation switch: when False, the pending-operation log appends
    #: blindly instead of cancelling annihilating sequences (Section 4.6).
    cancellation_enabled: bool = True
    #: Strategy (2) of Section 4.5.3, opt-in (``enable_irs_first_optimization``).
    irs_first_enabled: bool = False
    #: Per-collection mutation mutexes serializing ``indexObjects`` and
    #: update propagation (the coupling's engine-mutating paths).  Acquired
    #: *before* any database lock, released after, so the ordering
    #: mutation-mutex -> DB locks -> collection RW lock holds globally (see
    #: :mod:`repro.sync`).
    _mutation_mutexes: Dict[str, threading.RLock] = field(
        default_factory=dict, repr=False, compare=False
    )
    _mutex_guard: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    _buffer_views: Dict["OID", DecodedBufferView] = field(
        default_factory=dict, repr=False, compare=False
    )

    def buffer_view(self, collection_oid: "OID") -> DecodedBufferView:
        """The decoded buffer view of one COLLECTION object."""
        view = self._buffer_views.get(collection_oid)
        if view is None:
            with self._mutex_guard:
                view = self._buffer_views.setdefault(
                    collection_oid, DecodedBufferView()
                )
        return view

    def mutation_mutex(self, collection_name: str) -> threading.RLock:
        """The re-entrant mutex serializing mutations of one collection."""
        with self._mutex_guard:
            mutex = self._mutation_mutexes.get(collection_name)
            if mutex is None:
                mutex = threading.RLock()
                self._mutation_mutexes[collection_name] = mutex
            return mutex


def install_coupling(db: "Database", engine: IRSEngine, **context_options) -> CouplingContext:
    """Define the coupling classes in ``db`` and attach a context.

    Idempotent with respect to schema (re-installation replaces the engine
    wiring but leaves classes alone).  Returns the context.
    """
    from repro.core import collection as collection_module
    from repro.core import irs_object as irs_object_module

    context = CouplingContext(engine=engine, **context_options)
    setattr(db, _CONTEXT_ATTR, context)
    irs_object_module.define_irs_object_class(db)
    collection_module.define_collection_class(db)
    return context


def coupling_context(db: "Database") -> CouplingContext:
    """The context installed on ``db`` (raises when the coupling is absent)."""
    context = getattr(db, _CONTEXT_ATTR, None)
    if context is None:
        raise CouplingError(
            "coupling not installed on this database; call install_coupling()"
        )
    return context
