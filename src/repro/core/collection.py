"""The ``COLLECTION`` coupling class (Section 4.2).

"Instances of database class COLLECTION encapsulate exactly one IRS
collection.  The number of IRS collections in use is arbitrary."

Per instance, the persistent attributes are:

=================  =========================================================
``irs_name``       name of the encapsulated IRS collection
``spec_query``     the specification query selecting the member objects
``text_mode``      the ``getText`` mode used for this collection's documents
``model``          retrieval model override (None = engine default)
``derivation``     name of the ``deriveIRSValue`` scheme for non-members
``type_weights``   per-element-tag weights for the weighted_type scheme
``doc_map``        OID -> list of IRS document ids ("Each IRS document is
                   assigned exactly one object.  An object can be assigned
                   to more than one IRS document", Section 4.3 — several
                   ids occur with segment granularity [Cal94]).  Update
                   propagation writes it as a delta — item sets and item
                   deletes applied to the stored dictionary in place — and
                   only a rebuild (``indexObjects``, recovery) replaces it
                   whole: look keys up freely, iterate only a copy taken
                   with :func:`member_keys`
``segment_words``  >0 chunks each object's text into IRS documents of
                   roughly that many words (equal-size granularity)
``buffer``         the persistent IRS-result buffer (Section 4.2/Figure 3)
``pending_ops``    deferred update operations awaiting propagation
``update_policy``  "eager" or "deferred" (Section 4.6)
``index_gen``      index generation — bumped under the OODB WAL, in the
                   same logged group, whenever ``doc_map`` or the documents
                   behind it change; store checkpoints record it, so
                   recovery can detect IRS state older than the database
                   and reindex exactly those collections
=================  =========================================================
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro import obs
from repro.core import derivation, updates
from repro.core.buffer import ResultBuffer
from repro.core.context import coupling_context
from repro.errors import CouplingError, ObjectNotFoundError
from repro.oodb.database import Database
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID
from repro.oodb.query.optimizer import MethodMap, register_method_compiler

COLLECTION_CLASS = "COLLECTION"


# --------------------------------------------------------------------------
# Class definition
# --------------------------------------------------------------------------

def define_collection_class(db: Database) -> None:
    """Define the COLLECTION class with its coupling methods.

    Idempotent — and re-attaches methods when the class structure was
    recovered from a snapshot (method implementations are code and are
    never persisted).
    """
    if db.schema.has_class(COLLECTION_CLASS):
        cdef = db.schema.get_class(COLLECTION_CLASS)
        # Schemas restored from snapshots taken before the single-file
        # store existed lack ``index_gen``; add it so the attribute
        # resolves with its 0 default on old objects.
        if not db.schema.has_attribute(COLLECTION_CLASS, "index_gen"):
            db.add_class_attribute(COLLECTION_CLASS, "index_gen", "INT", 0)
        _attach_collection_methods(cdef)
        return
    cdef = db.define_class(
        COLLECTION_CLASS,
        attributes={
            "irs_name": "STRING",
            "spec_query": "STRING",
            "text_mode": "INT",
            "model": "STRING",
            "derivation": "STRING",
            "type_weights": "DICT",
            "doc_map": "DICT",
            "buffer": "DICT",
            "pending_ops": "LIST",
            "update_policy": "STRING",
            "segment_words": "INT",
            "index_gen": "INT",
        },
    )
    _attach_collection_methods(cdef)


def _attach_collection_methods(cdef) -> None:
    cdef.add_method("indexObjects", index_objects)
    cdef.add_method("getIRSResult", _get_irs_result)
    cdef.add_method("findIRSValue", _find_irs_value)
    cdef.add_method("containsObject", contains_object)
    cdef.add_method("insertObject", insert_object)
    cdef.add_method("modifyObject", modify_object)
    cdef.add_method("deleteObject", delete_object)
    cdef.add_method("propagateUpdates", propagate_updates)
    cdef.add_method("memberCount", member_count)
    # The IRS operators duplicated as collection methods (Section 4.5.4)
    # live in repro.core.operators and are attached there to avoid a cycle.
    from repro.core import operators as operator_module

    operator_module.attach_operator_methods(cdef)


def _create_collection(
    db: Database,
    name: str,
    spec_query: str = "",
    text_mode: int = 0,
    derivation: str = "maximum",
    model: Optional[str] = None,
    update_policy: Optional[str] = None,
    type_weights: Optional[Dict[str, float]] = None,
    segment_words: int = 0,
) -> DBObject:
    """Create a COLLECTION object and its encapsulated IRS collection.

    ``spec_query`` is an OODBMS query whose single-column result lists the
    IRSObjects to represent (Section 4.3.2: "The specification query is an
    OODBMS query expression and thus is powerful enough to specify any
    reasonable combination of objects").  Call ``indexObjects`` to run it.

    Internal implementation — the supported entry point is
    :meth:`repro.Session.create_collection`.
    """
    context = coupling_context(db)
    if context.engine.has_collection(name):
        raise CouplingError(f"IRS collection {name!r} already exists")
    context.engine.create_collection(name)
    return db.create_object(
        COLLECTION_CLASS,
        irs_name=name,
        spec_query=spec_query,
        text_mode=text_mode,
        derivation=derivation,
        model=model,
        update_policy=update_policy or context.default_update_policy,
        type_weights=dict(type_weights or {}),
        doc_map={},
        buffer={},
        pending_ops=[],
        segment_words=segment_words,
        index_gen=0,
    )


def segment_text(text: str, words_per_segment: int) -> list:
    """Split ``text`` into pieces of roughly ``words_per_segment`` words.

    The equal-length segmentation of [HeP93]/[Cal94] ("splitting into
    equal-length pieces of 30 words").  ``words_per_segment <= 0`` keeps the
    text whole; an empty text still yields one (empty) segment so every
    member object stays represented.
    """
    if words_per_segment <= 0:
        return [text]
    words = text.split()
    if not words:
        return [text]
    return [
        " ".join(words[i : i + words_per_segment])
        for i in range(0, len(words), words_per_segment)
    ]


# --------------------------------------------------------------------------
# COLLECTION methods
# --------------------------------------------------------------------------

def index_objects(
    collection_obj: DBObject,
    spec_query: Optional[str] = None,
    text_mode: Optional[int] = None,
    bindings: Optional[Dict[str, Any]] = None,
) -> bool:
    """``indexObjects(specQuery, textMode)`` — populate the IRS collection.

    "indexObjects evaluates the specification query specQuery.  The result
    is a set of IRSObjects.  For each of these the method getText(mode) is
    invoked.  The results, in turn, are stored in a file which is indexed
    by the IRS" (Section 4.2).  The spool file is written when the context
    has a ``result_file_directory`` (the paper's file exchange); indexing
    itself always goes through the engine, carrying each object's OID as
    IRS-document metadata.
    """
    db = collection_obj.database
    context = coupling_context(db)
    started = time.perf_counter()
    # Lock order (see repro.sync): claim the collection object in the
    # database first — a deadlock/timeout abort can then only happen before
    # the IRS index is touched — then the coupling mutation mutex, and only
    # then (briefly, with all database reads done) the engine write lock.
    db.lock_exclusive(collection_obj.oid)
    with context.mutation_mutex(str(collection_obj.oid)):
        if spec_query is not None:
            collection_obj.set("spec_query", spec_query)
        if text_mode is not None:
            collection_obj.set("text_mode", text_mode)
        query_text = collection_obj.get("spec_query")
        if not query_text:
            raise CouplingError("collection has no specification query")

        with obs.tracer().span("coupling.indexObjects") as span:
            rows = db.query(query_text, bindings or {})
            members = []
            for row in rows:
                if len(row) != 1 or not isinstance(row[0], DBObject):
                    raise CouplingError(
                        "specification query must project exactly one object column"
                    )
                obj = row[0]
                if not obj.isa("IRSObject"):
                    raise CouplingError(f"{obj!r} is not an IRSObject")
                members.append(obj)

            irs_name = collection_obj.get("irs_name")
            span.set_attribute("collection", irs_name)
            span.set_attribute("members", len(members))
            # One logged group: a crash leaves the whole rebuild or none of it.
            with db.autocommit_group():
                planned = updates.rebuild(
                    collection_obj, [str(obj.oid) for obj in members]
                )
                collection_obj.set("pending_ops", [])
            if context.result_file_directory is not None:
                spool_path = os.path.join(
                    context.result_file_directory, f"{irs_name}.spool.txt"
                )
                with open(spool_path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(
                        f"{oid_str}\t{piece}"
                        for op, oid_str, pieces in planned if op == updates.INSERT
                        for piece in pieces
                    ))
            context.counters.add("index_runs")
    registry = obs.metrics()
    registry.counter("coupling.indexObjects.calls").inc()
    registry.histogram("coupling.indexObjects.seconds").observe(
        time.perf_counter() - started
    )
    return True


def _get_irs_result(
    collection_obj: DBObject, irs_query: str,
    buffer: Optional[ResultBuffer] = None, merged: bool = True,
) -> Dict[OID, float]:
    """``getIRSResult(IRSQuery)`` — dictionary of IRSObjects to IRS values.

    "The IRS query IRSQuery is passed on to the IRS.  The result is a
    dictionary: its keys are the IRSObjects of the text objects, the values
    the IRS values as computed by the IRS.  For both intra- and inter-query
    optimization, the results of IRS calls are buffered persistently."

    A pending deferred update forces propagation first (Section 4.6).

    The returned mapping is the buffer's decoded entry, shared by every
    caller of the same query: read it, never change it.  A caller that will
    amend the result passes its own ``buffer``, which ties the amend to the
    buffer generation this lookup saw.  With ``merged=False`` it gets the
    entry as last published and asks ``buffer.amended`` for values derived
    since (``findIRSValue`` reads one value, and merging per call would cost
    O(result) per amend).

    Internal implementation — the supported entry point is
    :meth:`repro.Session.query`.
    """
    db = collection_obj.database
    context = coupling_context(db)

    started = time.perf_counter()
    with obs.tracer().span(
        "coupling.getIRSResult", query=obs.trim(irs_query)
    ) as span:
        if updates.has_pending(collection_obj):
            updates.propagate(collection_obj, forced=True)

        model = collection_obj.get("model")
        if buffer is None:
            buffer = ResultBuffer(collection_obj, context.counters)
        cached = buffer.lookup(irs_query, model, merged)
        if cached is not None:
            span.set_attribute("buffered", True)
            span.set_attribute("results", len(cached))
            oid_values = cached
        else:
            span.set_attribute("buffered", False)
            irs_name = collection_obj.get("irs_name")
            span.set_attribute("collection", irs_name)
            if context.result_file_directory is not None:
                values = _query_via_file(context, irs_name, irs_query, model)
                oid_values = {OID.parse(oid_str): value for oid_str, value in values.items()}
            else:
                oid_values, values = irs_values(context.engine, irs_name, irs_query, model)
            # The same mapping is returned and kept as the decoded view's
            # entry; ``values`` is stored as the IRS keyed it.
            buffer.store(irs_query, oid_values, model, encoded=values)
            span.set_attribute("results", len(oid_values))
    registry = obs.metrics()
    registry.counter("coupling.getIRSResult.calls").inc()
    registry.histogram("coupling.getIRSResult.seconds").observe(
        time.perf_counter() - started
    )
    return oid_values


def irs_values(
    engine, irs_name: str, irs_query: str, model: Optional[str], top_k: Optional[int] = None
) -> Tuple[Dict[OID, float], Dict[str, float]]:
    """Score ``irs_query``; ``({OID: value}, {"OID<n>": value})``.

    Scoring and mapping doc ids to OIDs happen under one read hold, so a
    concurrent propagation cannot remove documents between the two steps;
    the result is decoded once.
    """
    with engine.reading(irs_name):
        result = engine.query(irs_name, irs_query, model=model, top_k=top_k)
        values = result.by_metadata(engine.collection(irs_name), "oid")
    return {OID.parse(oid_str): value for oid_str, value in values.items()}, values


def _query_via_file(context, irs_name: str, irs_query: str, model: Optional[str]) -> Dict[str, float]:
    """The paper's historical exchange: result file written, then parsed."""
    from repro.irs.engine import parse_result_file

    safe = "".join(ch if ch.isalnum() else "_" for ch in irs_query)[:40]
    path = os.path.join(context.result_file_directory, f"{irs_name}.{safe}.result")
    context.engine.query_to_file(irs_name, irs_query, path, metadata_key="oid", model=model)
    return parse_result_file(path)


def _find_irs_value(collection_obj: DBObject, irs_query: str, obj: DBObject) -> float:
    """``findIRSValue(IRSQuery, obj)`` — the flow chart of Figure 3.

    "The method returns the IRS value for the parameter object.  If the
    object is represented in the IRS collection, the IRS directly
    calculates the value, otherwise deriveIRSValue is invoked for obj" —
    and the derived value is inserted into the buffer.

    Internal implementation — the supported entry point is
    :meth:`repro.Session.find_value`.
    """
    db = collection_obj.database
    context = coupling_context(db)
    registry = obs.metrics()
    registry.counter("coupling.findIRSValue.calls").inc()
    with obs.tracer().span(
        "coupling.findIRSValue", query=obs.trim(irs_query), oid=str(obj.oid)
    ) as span:
        buffer = ResultBuffer(collection_obj, context.counters)
        values = _get_irs_result(collection_obj, irs_query, buffer, merged=False)
        value = values.get(obj.oid)
        if value is None and obj.oid in member_oids(collection_obj):
            value = 0.0  # represented, but the IRS found no relevance
        if value is not None:
            span.set_attribute("source", "irs" if obj.oid in values else "zero")
            return value
        model = collection_obj.get("model")
        value = buffer.amended(irs_query, obj.oid, model)
        if value is not None:  # derived since the entry was published
            span.set_attribute("source", "irs")
            return value
        span.set_attribute("source", "derived")
        derived = obj.send("deriveIRSValue", collection_obj, irs_query)
        buffer.amend(irs_query, obj.oid, derived, model)
        return derived


def contains_object(collection_obj: DBObject, obj: DBObject) -> bool:
    """True when ``obj`` is represented in the IRS collection."""
    return obj.oid in member_oids(collection_obj)


def member_oids(collection_obj: DBObject) -> FrozenSet[OID]:
    """The OIDs of every represented object — ``doc_map``'s keys, decoded.

    Decoded once per write version of the COLLECTION object and kept in its
    :class:`~repro.core.context.DecodedBufferView`: a write to the object
    other than the result buffer's own (a propagation's item writes, an
    ``indexObjects`` rebuild, an undo) leaves the version it was decoded at
    behind, and the next call decodes again.  Read-only; membership tests
    by OID hash in C.
    """
    db = collection_obj.database
    view = coupling_context(db).buffer_view(collection_obj.oid)
    # Version first, data second: a racing write leaves the tag behind.
    version = db.write_version(collection_obj.oid)
    doc_map = collection_obj.get("doc_map") or {}
    tagged, members = view.members
    if tagged != version:
        with db.store_lock():
            members = frozenset(map(OID.parse, doc_map))
        view.members = (version, members)
    return members


def member_keys(collection_obj: DBObject) -> List[str]:
    """``str(oid)`` of every represented object, as one consistent copy.

    Propagation writes ``doc_map`` items in place, a batch at a time under
    the store lock: the copy taken under it holds a whole batch or none of
    it, and iterating the copy cannot meet a dictionary changing size.
    """
    doc_map = collection_obj.get("doc_map") or {}
    with collection_obj.database.store_lock():
        return list(doc_map)


def member_count(collection_obj: DBObject) -> int:
    """Number of objects represented in the IRS collection."""
    doc_map = collection_obj.get("doc_map") or {}
    with collection_obj.database.store_lock():
        return len(doc_map)


# --------------------------------------------------------------------------
# Update methods ("One out of three update methods ... has to be invoked
# whenever a relevant update occurs", Section 4.2)
# --------------------------------------------------------------------------

def insert_object(collection_obj: DBObject, obj: DBObject) -> None:
    """Notify the collection that a member object was created."""
    updates.record_update(collection_obj, updates.INSERT, obj)


def modify_object(collection_obj: DBObject, obj: DBObject) -> None:
    """Notify the collection that a member object's text changed."""
    updates.record_update(collection_obj, updates.MODIFY, obj)


def delete_object(collection_obj: DBObject, obj: DBObject) -> None:
    """Notify the collection that a member object was deleted."""
    updates.record_update(collection_obj, updates.DELETE, obj)


def propagate_updates(collection_obj: DBObject) -> int:
    """Apply pending deferred updates now (e.g. in a low-load period)."""
    return updates.propagate(collection_obj)


# --------------------------------------------------------------------------
# Optimizer integration (Sections 4.5.3/4.5.4)
# --------------------------------------------------------------------------

def enable_irs_first_optimization(db: Database) -> None:
    """Let the optimizer answer ``getIRSValue`` comparisons IRS-first.

    This is evaluation alternative (2) of Section 4.5.3: "The IRS selects
    all IRS documents fulfilling the conditions on the content.  The
    structure conditions are only verified for the text objects identified
    in this first step."  Note the stated semantics: objects *not
    represented* in the collection are never returned, so derived values do
    not participate — that is inherent to the strategy, not a bug, and is
    why it is opt-in.
    """
    coupling_context(db).irs_first_enabled = True


def disable_irs_first_optimization(db: Database) -> None:
    """Return to per-object evaluation (alternative (1) of Section 4.5.3)."""
    coupling_context(db).irs_first_enabled = False


def _compile_irs_value(db: Database, class_name: str, args: tuple):
    """Compile ``x -> getIRSValue(<coll>, <query>)`` over a range into a map.

    Evaluation strategy (1) of Section 4.5.3, set-at-a-time: the statement
    fetches the (buffered) IRS result once — forcing a pending propagation
    once — and that result *is* the map: a represented object the IRS did
    not return has the default 0.0, so a ``>`` against a positive constant
    touches only the hits.  Objects not represented in the collection get
    Figure 3's derived value, all in one pass: their descendants read as a
    column, combined with the scheme's :func:`~repro.core.derivation.combination`
    and amended to the buffer one by one in extent order.  That takes every
    class in the range answering ``deriveIRSValue`` and ``getDescendants``
    with the defaults, and a combining scheme when the map runs; otherwise
    they are *undecided*, sent ``getIRSValue`` after every other conjunct
    to dispatch ``deriveIRSValue`` per object.  Strategy (2), when enabled,
    is the same map with nothing undecided and no default: only what the
    IRS returned can pass ``>`` / ``>=``.  Values are those
    ``send("getIRSValue", ...)`` returns, so the compiler declines whenever
    ``send`` could reach other code: the collection left to the object's
    choice, or ``getIRSValue`` / ``findIRSValue`` overridden on a class in
    the range or on the collection's class.
    """
    from repro.core.irs_object import _resolve_explicit, derive_irs_value, get_irs_value
    from repro.sgml.loader import _get_descendants, descendants

    if len(args) != 2 or not isinstance(args[1], str):
        return None
    try:
        context = coupling_context(db)
        collection_obj = _resolve_explicit(db, args[0])
    except (CouplingError, ObjectNotFoundError):
        return None
    schema = db.schema
    if schema.resolve_method(collection_obj.class_name, "findIRSValue") is not _find_irs_value:
        return None
    if not schema.method_is(class_name, "getIRSValue", get_irs_value):
        return None
    irs_query = args[1]
    defaults = {"deriveIRSValue": derive_irs_value, "getDescendants": _get_descendants}
    by_column = all(schema.method_is(class_name, m, f) for m, f in defaults.items())

    def irs_values(oids, bound=None) -> MethodMap:
        context.counters.add("get_irs_value_calls")
        buffer = ResultBuffer(collection_obj, context.counters)
        with obs.tracer().span(
            "coupling.findIRSValue", query=obs.trim(irs_query), mode="probe"
        ):
            values = _get_irs_result(collection_obj, irs_query, buffer)
        if context.irs_first_enabled and bound is not None and bound[0] in (">", ">="):
            return MethodMap(values, restricts=True)
        members = member_oids(collection_obj)
        undecided = oids.difference(values, members)
        combine = by_column and undecided and derivation.combination(collection_obj)
        if not combine:
            return MethodMap(values, undecided, default=0.0)
        order = db.in_extent_order(class_name, undecided)
        scheme = collection_obj.get("derivation") or "maximum"
        with obs.tracer().span(
            "coupling.deriveIRSValue", mode="column", scheme=scheme, objects=len(order)
        ):
            derived = {
                oid: combine([values.get(d, 0.0) for d in below if d in members])
                for oid, below in descendants(db, order).items()
            }
        context.counters.add("derivations", len(derived))
        obs.metrics().counter("coupling.derivations").inc(len(derived))
        model = collection_obj.get("model")
        for oid, value in derived.items():
            buffer.amend(irs_query, oid, value, model)
        return MethodMap({**values, **derived}, default=0.0)

    return irs_values


register_method_compiler("getIRSValue", _compile_irs_value, outside=True)
