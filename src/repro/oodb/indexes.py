"""Attribute indexes.

One index kind over ``(class, attribute)`` pairs, serving both equality
and the comparison operators of the query language (``>``, ``>=``, ``<``,
``<=``).  An index changes the plan, never the result: a probe answers
exactly what the evaluator's filter would, or returns None and the
evaluator keeps the conjunct as a filter.

Indexes cover a class *including its subclasses* (the extent semantics of
the query language ``FROM x IN CLASS``), and are maintained on every
attribute write and object create/delete by the database facade.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterable, List, Optional, Set

from repro.oodb.oid import OID


class AttributeIndex:
    """A dict from the raw value to the OIDs holding it.

    Equality follows Python ``==``, as the filter does (``1``, ``1.0`` and
    ``True`` are one key).  Range probes bisect a key list sorted on the
    first range probe and dropped when a key appears or empties.  NULLs are
    not indexed: no comparison of the filter matches them.  A value no
    sorted dict key can stand for (unhashable, or NaN) is held aside, and
    while any is held every probe returns None.
    """

    def __init__(self, class_name: str, attribute: str) -> None:
        self.class_name = class_name
        self.attribute = attribute
        self._table: Dict[Any, Set[OID]] = {}
        self._keys: Optional[List[Any]] = None
        self._aside: Set[OID] = set()

    def insert(self, key: Any, oid: OID) -> None:
        if key is None:
            return
        if _opaque(key):
            self._aside.add(oid)
            return
        bucket = self._table.get(key)
        if bucket is None:
            bucket = self._table[key] = set()
            self._keys = None
        bucket.add(oid)

    def remove(self, key: Any, oid: OID) -> None:
        if key is None:
            return
        if _opaque(key):
            self._aside.discard(oid)
            return
        bucket = self._table.get(key)
        if bucket is not None:
            bucket.discard(oid)
            if not bucket:
                del self._table[key]
                self._keys = None

    def lookup(self, key: Any) -> Optional[Set[OID]]:
        """OIDs whose value ``== key``; None when the filter must decide."""
        if key is None or self._aside or _opaque(key):
            return None
        return set(self._table.get(key, ()))

    def range(self, op: str, constant: Any) -> Optional[Set[OID]]:
        """OIDs whose value ``op constant`` holds (``op`` one of ``> >= < <=``);
        None when the keys or the constant are not mutually comparable."""
        if constant is None or self._aside or _opaque(constant):
            return None
        try:
            if self._keys is None:
                self._keys = sorted(self._table)
            keys = self._keys
            if op[0] == ">":
                start, stop = (bisect_left if op == ">=" else bisect_right)(keys, constant), len(keys)
            else:
                start, stop = 0, (bisect_right if op == "<=" else bisect_left)(keys, constant)
        except TypeError:
            return None
        result: Set[OID] = set()
        for key in keys[start:stop]:
            result |= self._table[key]
        return result

    def __repr__(self) -> str:
        return f"<AttributeIndex on {self.class_name}.{self.attribute}>"


def _opaque(key: Any) -> bool:
    """True for a value no sorted dict key can stand for: unhashable, or NaN."""
    try:
        hash(key)
    except TypeError:
        return True
    return key != key


class IndexCatalog:
    """All indexes of one database, addressable by (class, attribute)."""

    def __init__(self) -> None:
        self._indexes: Dict[tuple, AttributeIndex] = {}
        self._attributes: Set[str] = set()

    def create(self, class_name: str, attribute: str) -> AttributeIndex:
        """Create (or return the existing) index on ``class.attribute``."""
        key = (class_name, attribute)
        if key not in self._indexes:
            self._indexes[key] = AttributeIndex(class_name, attribute)
            self._attributes.add(attribute)
        return self._indexes[key]

    def drop(self, class_name: str, attribute: str) -> None:
        """Remove the index if present."""
        self._indexes.pop((class_name, attribute), None)
        self._attributes = {attr for _, attr in self._indexes}

    def covers_attribute(self, attribute: str) -> bool:
        """True when some class has an index on ``attribute``."""
        return attribute in self._attributes

    def find(self, class_name: str, attribute: str) -> Optional[AttributeIndex]:
        """The index on exactly ``(class_name, attribute)``, or None."""
        return self._indexes.get((class_name, attribute))

    def covering(self, class_names: Iterable[str], attribute: str) -> Optional[AttributeIndex]:
        """An index on ``attribute`` for any of ``class_names`` (first match)."""
        for cname in class_names:
            index = self._indexes.get((cname, attribute))
            if index is not None:
                return index
        return None

    def all_indexes(self) -> list:
        """Every index in the catalog."""
        return list(self._indexes.values())
