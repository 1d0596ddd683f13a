"""Administration: introspection reports over a running document system.

The editorial team of an online journal needs to see what the system is
doing — which collections exist, how fresh they are, what the buffers hold,
where the storage goes.  These helpers power the shell's ``.collections``
output and give applications a monitoring surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro import obs
from repro.core.collection import COLLECTION_CLASS
from repro.core.context import coupling_context
from repro.oodb.database import Database
from repro.oodb.objects import DBObject


@dataclass(frozen=True)
class CollectionReport:
    """Health and size report of one COLLECTION."""

    name: str
    spec_query: str
    members: int
    irs_documents: int
    index_terms: int
    index_bytes: int
    buffered_queries: int
    pending_updates: int
    update_policy: str
    derivation: str
    model: str
    text_mode: int

    @property
    def is_stale(self) -> bool:
        """True when deferred updates await propagation."""
        return self.pending_updates > 0


def collection_report(collection_obj: DBObject) -> CollectionReport:
    """Build the report for one COLLECTION object."""
    context = coupling_context(collection_obj.database)
    irs = context.engine.collection(collection_obj.get("irs_name"))
    doc_map = collection_obj.get("doc_map") or {}
    return CollectionReport(
        name=collection_obj.get("irs_name"),
        spec_query=collection_obj.get("spec_query") or "",
        members=len(doc_map),
        irs_documents=len(irs),
        index_terms=irs.index.term_count,
        index_bytes=irs.indexed_bytes(),
        buffered_queries=len(collection_obj.get("buffer") or {}),
        pending_updates=len(collection_obj.get("pending_ops") or []),
        update_policy=collection_obj.get("update_policy") or "deferred",
        derivation=collection_obj.get("derivation") or "maximum",
        model=collection_obj.get("model") or "(engine default)",
        text_mode=collection_obj.get("text_mode") or 0,
    )


def all_collection_reports(db: Database) -> List[CollectionReport]:
    """Reports for every COLLECTION object in the database."""
    return [
        collection_report(obj)
        for obj in db.instances_of(COLLECTION_CLASS)
        if obj.get("irs_name")
    ]


def system_report(db: Database) -> Dict[str, object]:
    """A one-shot summary of the whole coupled system (counts since the
    process started or ``obs.metrics().reset()``)."""
    counters = obs.metrics().snapshot()["counters"]
    class_counts: Dict[str, int] = {}
    for obj in db.iter_objects():
        class_counts[obj.class_name] = class_counts.get(obj.class_name, 0) + 1
    collections = all_collection_reports(db)
    return {
        "objects": db.object_count(),
        "classes": len(db.schema.class_names()),
        "objects_by_class": dict(sorted(class_counts.items())),
        "collections": len(collections),
        "stale_collections": [r.name for r in collections if r.is_stale],
        "total_index_bytes": sum(r.index_bytes for r in collections),
        "buffer_hit_rate": _hit_rate(counters),
        "irs_queries_executed": counters.get("irs.query.executed", 0),
    }


def _hit_rate(counters: Dict[str, int]) -> float:
    hits = counters.get("coupling.buffer.hits", 0)
    total = hits + counters.get("coupling.buffer.misses", 0)
    if total == 0:
        return 0.0
    return hits / total
