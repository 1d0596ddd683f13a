"""On-the-fly indexing (Section 4.3.1, alternative (3)).

"(3) inserting IRS documents into IRS collections on the fly before query
processing, and deleting them afterwards ... is inefficient due to the fact
that inserting and deleting of IRS documents is costly."

:func:`transient_members` implements the alternative faithfully so the
TRANS benchmark can quantify that claim against buffered derivation: inside
the ``with`` block the given objects are genuinely represented in the IRS
collection (queries return direct values for them); on exit their IRS
documents are removed.  Both transitions go through update propagation's
one membership-change path — segmented like any member, one logged group
each, ``index_gen`` moved and the result buffer invalidated — since both
change the collection's contents.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, List

from repro.core import updates
from repro.oodb.objects import DBObject


@contextmanager
def transient_members(
    collection_obj: DBObject, objects: Iterable[DBObject]
) -> Iterator[List[DBObject]]:
    """Temporarily represent ``objects`` in the collection.

    Yields the list of objects actually inserted (those that were already
    members are left alone and not removed afterwards).
    """
    doc_map = collection_obj.get("doc_map") or {}
    inserted = list({
        obj.oid: obj for obj in objects if str(obj.oid) not in doc_map
    }.values())
    _change(collection_obj, updates.INSERT, inserted)
    try:
        yield inserted
    finally:
        _change(collection_obj, updates.DELETE, inserted)


def _change(collection_obj: DBObject, op: str, objects: List[DBObject]) -> None:
    with collection_obj.database.autocommit_group():
        updates._apply([[op, str(obj.oid)] for obj in objects], collection_obj)
        updates._invalidate_buffer(collection_obj)
