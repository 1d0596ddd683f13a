"""Update propagation from the OODBMS to the IRS (Section 4.6).

"With the OODBMS being the control component updates need to be propagated
to the IRS.  The point of propagation time can freely be chosen":

* ``eager`` — "After each database update the corresponding IRS-index
  structures are updated" (costly when updates dominate queries);
* ``deferred`` — the application invokes propagation (e.g. in low-load
  periods); "If, however, an information-need query is issued with update
  propagation pending, propagation is enforced" — enforced by
  :func:`repro.core.collection._get_irs_result`.

"Database operations are recorded to avoid unnecessary update propagations"
— the pending-operation log collapses sequences whose effects cancel:
insert-then-delete annihilates completely, repeated modifications collapse
to one, a modification of a freshly inserted object is subsumed by the
insert, and delete-then-reinsert becomes a modification.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.buffer import ResultBuffer
from repro.core.context import coupling_context
from repro.core.text_modes import text_for
from repro.errors import CouplingError, DocumentMissingError
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID

logger = logging.getLogger(__name__)

INSERT = "insert"
MODIFY = "modify"
DELETE = "delete"

EAGER = "eager"
DEFERRED = "deferred"

_POLICIES = (EAGER, DEFERRED)


def record_update(collection_obj: DBObject, op: str, obj: DBObject) -> None:
    """Entry point for the COLLECTION update methods.

    Under ``eager`` the operation is applied to the IRS immediately; under
    ``deferred`` it is appended to the pending log with cancellation.
    """
    if op not in (INSERT, MODIFY, DELETE):
        raise CouplingError(f"unknown update operation {op!r}")
    db = collection_obj.database
    context = coupling_context(db)
    context.counters.add("updates_logged")
    obs.metrics().counter("coupling.updates.logged").inc()
    # Claim the collection object before reading its state so two recorders
    # (or a recorder and a propagator) serialize in the database lock
    # manager, where deadlocks are detected; the mutation mutex serializes
    # non-transactional callers the lock manager never sees.
    db.lock_exclusive(collection_obj.oid)
    with context.mutation_mutex(str(collection_obj.oid)):
        policy = collection_obj.get("update_policy") or context.default_update_policy
        if policy not in _POLICIES:
            raise CouplingError(f"unknown update policy {policy!r}; know {_POLICIES}")
        if policy == EAGER:
            with db.autocommit_group():
                _apply([[op, str(obj.oid)]], collection_obj)
                _invalidate_buffer(collection_obj)
            context.counters.add("updates_propagated")
            obs.metrics().counter("coupling.updates.propagated").inc()
            return
        pending = [list(entry) for entry in (collection_obj.get("pending_ops") or [])]
        if context.cancellation_enabled:
            pending = _log_with_cancellation(pending, op, str(obj.oid), context)
        else:
            pending.append([op, str(obj.oid)])
        collection_obj.set("pending_ops", pending)


def _log_with_cancellation(
    pending: List[list], op: str, oid_str: str, context
) -> List[list]:
    """Append (op, oid) to the log, collapsing cancelling sequences."""
    previous = None
    for index, (pending_op, pending_oid) in enumerate(pending):
        if pending_oid == oid_str:
            previous = (index, pending_op)
    if previous is None:
        pending.append([op, oid_str])
        return pending
    index, pending_op = previous
    if op == DELETE and pending_op == INSERT:
        # Generated then deleted before propagation: both vanish.
        del pending[index]
        context.counters.add("updates_cancelled", 2)
        return pending
    if op == MODIFY and pending_op in (INSERT, MODIFY):
        # The earlier operation will pick up the current text anyway.
        context.counters.add("updates_cancelled")
        return pending
    if op == DELETE and pending_op == MODIFY:
        # Modification of a to-be-deleted object is moot.
        del pending[index]
        context.counters.add("updates_cancelled")
        pending.append([DELETE, oid_str])
        return pending
    if op == INSERT and pending_op == DELETE:
        # Delete then re-insert: net effect is a modification.
        del pending[index]
        context.counters.add("updates_cancelled")
        pending.append([MODIFY, oid_str])
        return pending
    pending.append([op, oid_str])
    return pending


def has_pending(collection_obj: DBObject) -> bool:
    """True when deferred operations await propagation."""
    return bool(collection_obj.get("pending_ops") or [])


def propagate(collection_obj: DBObject, forced: bool = False) -> int:
    """Apply all pending operations to the IRS; returns how many ran.

    Concurrency protocol: the collection object is X-locked first (inside a
    transaction), so a deadlock/timeout abort can only strike while the IRS
    index is still untouched and a service-layer retry finds consistent
    state; the mutation mutex then serializes against non-transactional
    mutators; finally :func:`_apply` batches its engine mutations under the
    collection's write lock with all database reads done up front.

    Everything the propagation writes to the database — the ``doc_map`` items
    it touched, ``index_gen``, the emptied ``pending_ops`` and buffer — is
    one logged group: O(pending operations) log bytes, one fsync, and a
    crash leaves either all of it or none.
    """
    db = collection_obj.database
    context = coupling_context(db)
    db.lock_exclusive(collection_obj.oid)
    with context.mutation_mutex(str(collection_obj.oid)):
        pending = [tuple(entry) for entry in (collection_obj.get("pending_ops") or [])]
        if not pending:
            # Another propagator drained the log while we waited: done.
            return 0
        with obs.tracer().span(
            "coupling.propagateUpdates", operations=len(pending), forced=forced
        ), db.autocommit_group():
            _apply([list(entry) for entry in pending], collection_obj)
            collection_obj.set("pending_ops", [])
            _invalidate_buffer(collection_obj)
    context.counters.add("updates_propagated", len(pending))
    obs.metrics().counter("coupling.updates.propagated").inc(len(pending))
    if forced:
        context.counters.add("forced_propagations")
        obs.metrics().counter("coupling.updates.forced_propagations").inc()
    logger.debug(
        "propagated %d pending update(s) to IRS collection %r%s",
        len(pending),
        collection_obj.get("irs_name"),
        " (forced by query)" if forced else "",
    )
    return len(pending)


def _apply(operations: List[list], collection_obj: DBObject) -> None:
    """Run operations against the IRS collection, maintaining doc_map.

    The one membership-change path: propagation, eager updates and
    transient members call it; :func:`rebuild` (``indexObjects``,
    recovery) shares its two halves.  ``doc_map`` is written as a delta:
    one item set per object whose document ids changed, one item delete
    per removed member, applied to the stored dictionary in place under
    the store lock so that a reader copying it
    (:func:`repro.core.collection.member_keys`) sees the whole batch or
    none of it.
    """
    _write_doc_map(collection_obj, _index(operations, collection_obj))


def rebuild(collection_obj: DBObject, members: List[str]) -> None:
    """Replace the whole membership with ``members`` (``str(oid)`` each).

    Every stored member is deleted, then every member inserted, in one
    engine batch — deletes first, because recovery rebuilds into a fresh
    IRS collection whose new doc ids collide with the stale ones still
    stored.  A member listed twice is indexed once ("each IRS document is
    assigned exactly one object", Section 4.3).  ``doc_map`` is written
    whole, as one record; ``pending_ops`` is left alone (recovery keeps
    deferred operations).
    """
    from repro.core.collection import member_keys

    members = list(dict.fromkeys(members))
    operations = [[DELETE, key] for key in member_keys(collection_obj)]
    operations += [[INSERT, key] for key in members]
    changed = _index(operations, collection_obj)
    whole = {key: changed[key] for key in members if changed.get(key) is not None}
    _write_doc_map(collection_obj, changed, whole)
    _invalidate_buffer(collection_obj)


def _write_doc_map(
    collection_obj: DBObject,
    changed: Dict[str, Optional[List[int]]],
    whole: Optional[Dict[str, List[int]]] = None,
) -> None:
    """Write ``doc_map`` — ``whole``, or ``changed`` as items — and move
    ``index_gen``, changed map or not: a same-shape replacement changes the
    index under an unchanged map."""
    db = collection_obj.database
    if whole is not None:
        collection_obj.set("doc_map", whole)
    else:
        with db.store_lock():
            for oid_str, doc_ids in changed.items():
                if doc_ids is None:
                    db.delete_dict_item(collection_obj.oid, "doc_map", (oid_str,))
                else:
                    db.write_dict_item(collection_obj.oid, "doc_map", (oid_str,), doc_ids)
    collection_obj.set("index_gen", int(collection_obj.get("index_gen") or 0) + 1)


def _index(
    operations: List[list], collection_obj: DBObject
) -> Dict[str, Optional[List[int]]]:
    """Run operations against the IRS collection; returns ``changed``, which
    maps each object whose document ids changed to its new ids (None:
    member removed).

    Two phases.  Phase 1 performs every database read (object texts,
    segmentation) with no engine access; phase 2 performs the engine
    mutations under the collection's write lock with no database access —
    code holding that write lock must never wait on database locks (see
    :mod:`repro.sync`), and readers observe the whole batch atomically.
    Engine mutations tolerate already-missing documents so a retried
    propagation (after a deadlock abort rolled back ``pending_ops`` but an
    earlier attempt's engine work survived) stays idempotent.
    """
    context = coupling_context(collection_obj.database)
    engine = context.engine
    irs_name = collection_obj.get("irs_name")
    text_mode = collection_obj.get("text_mode") or 0
    segment_words = collection_obj.get("segment_words") or 0
    # Read-only here; ``changed`` overlays it (None: member removed).
    doc_map = collection_obj.get("doc_map") or {}
    changed: Dict[str, Optional[List[int]]] = {}
    db = collection_obj.database
    from repro.core.collection import segment_text

    # Phase 1 — database reads only.
    planned: List[Tuple[str, str, Optional[List[str]]]] = []
    for op, oid_str in operations:
        if op == DELETE:
            planned.append((DELETE, oid_str, None))
            continue
        oid = OID.parse(oid_str)
        if not db.object_exists(oid):
            continue  # object died before propagation; nothing to index
        obj = db.get_object(oid)
        text = obj.send("getText", text_mode) if obj.responds_to("getText") else text_for(obj, text_mode)
        planned.append((op, oid_str, segment_text(text, segment_words)))

    # Phase 2 — engine mutations only, atomic for concurrent readers.  The
    # bulk context coalesces the whole window's epoch bumps into one, so a
    # batch of N pending updates evicts epoch-keyed caches once, not N times.
    # New documents wait in ``fresh`` for one batch, flushed before any remove
    # or replace: doc ids come out as one call per document would give them.
    fresh: Dict[str, List[str]] = {}

    def flush() -> None:
        doc_ids = iter(engine.index_documents(irs_name, [
            (piece, {"oid": key}) for key, pieces in fresh.items() for piece in pieces
        ]))
        changed.update((key, [next(doc_ids) for _ in pieces]) for key, pieces in fresh.items())
        fresh.clear()

    indexed = 0
    with engine.bulk_mutating(irs_name):
        for op, oid_str, pieces in planned:
            old_ids = changed[oid_str] if oid_str in changed else doc_map.get(oid_str)
            if fresh and (old_ids or oid_str in fresh):
                flush()
                old_ids = changed.get(oid_str, old_ids)
            if op == DELETE:
                for doc_id in old_ids or []:
                    try:
                        engine.remove_document(irs_name, doc_id)
                    except DocumentMissingError:
                        pass
                if old_ids is not None:
                    changed[oid_str] = None
                continue
            old_ids = old_ids or []
            if op == MODIFY and len(old_ids) == len(pieces) == 1:
                try:
                    # Fast path: same shape, replace in place.
                    engine.replace_document(irs_name, old_ids[0], pieces[0])
                    continue
                except DocumentMissingError:
                    old_ids = []  # fall through to a fresh index below
            for doc_id in old_ids:
                try:
                    engine.remove_document(irs_name, doc_id)
                except DocumentMissingError:
                    pass
            fresh[oid_str] = pieces
            indexed += len(pieces)
        if fresh:
            flush()
    context.counters.add("documents_indexed", indexed)
    return changed


def _invalidate_buffer(collection_obj: DBObject) -> None:
    """Buffered IRS results are stale once the index changed."""
    ResultBuffer(
        collection_obj, coupling_context(collection_obj.database).counters
    ).invalidate()
    # Derived caches over the collection's contents are stale too.
    from repro.core.hierarchical import invalidate_scorer

    invalidate_scorer(collection_obj)
