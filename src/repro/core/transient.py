"""On-the-fly indexing (Section 4.3.1, alternative (3)).

"(3) inserting IRS documents into IRS collections on the fly before query
processing, and deleting them afterwards ... is inefficient due to the fact
that inserting and deleting of IRS documents is costly."

:func:`transient_members` implements the alternative faithfully so the
TRANS benchmark can quantify that claim against buffered derivation: inside
the ``with`` block the given objects are genuinely represented in the IRS
collection (queries return direct values for them); on exit their IRS
documents are removed and the result buffer is invalidated twice — once on
entry and once on exit, since both transitions change the collection's
contents.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, List

from repro.core.context import coupling_context
from repro.core.text_modes import text_for
from repro.oodb.objects import DBObject


@contextmanager
def transient_members(
    collection_obj: DBObject, objects: Iterable[DBObject]
) -> Iterator[List[DBObject]]:
    """Temporarily represent ``objects`` in the collection.

    Yields the list of objects actually inserted (those that were already
    members are left alone and not removed afterwards).
    """
    db = collection_obj.database
    context = coupling_context(db)
    engine = context.engine
    irs_name = collection_obj.get("irs_name")
    text_mode = collection_obj.get("text_mode") or 0

    inserted: List[DBObject] = []
    try:
        for obj in objects:
            key = str(obj.oid)
            if key in (collection_obj.get("doc_map") or {}):
                continue
            text = (
                obj.send("getText", text_mode)
                if obj.responds_to("getText")
                else text_for(obj, text_mode)
            )
            doc_id = engine.index_document(irs_name, text, {"oid": key})
            db.write_dict_item(collection_obj.oid, "doc_map", (key,), [doc_id])
            inserted.append(obj)
            context.counters.add("documents_indexed")
        collection_obj.set("buffer", {})  # contents changed: results stale
        _invalidate_derived_caches(collection_obj)
        yield inserted
    finally:
        doc_map = collection_obj.get("doc_map") or {}
        for obj in inserted:
            for doc_id in doc_map.get(str(obj.oid), []):
                engine.remove_document(irs_name, doc_id)
            db.delete_dict_item(collection_obj.oid, "doc_map", (str(obj.oid),))
        collection_obj.set("buffer", {})  # and stale again after removal
        _invalidate_derived_caches(collection_obj)


def _invalidate_derived_caches(collection_obj: DBObject) -> None:
    from repro.core.hierarchical import invalidate_scorer

    invalidate_scorer(collection_obj)
