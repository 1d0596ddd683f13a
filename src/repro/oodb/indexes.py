"""Attribute indexes.

Two physical index kinds over ``(class, attribute)`` pairs:

* :class:`BTreeIndex` — supports equality and range predicates; backs the
  comparison operators of the query language (``>``, ``>=``, ``<``, ``<=``).
* :class:`HashIndex` — equality only, O(1) probes.

Indexes cover a class *including its subclasses* (the extent semantics of
the query language ``FROM x IN CLASS``), and are maintained on every
attribute write and object create/delete by the database facade.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set

from repro.oodb.btree import BTree
from repro.oodb.oid import OID


class AttributeIndex:
    """Common interface of both index kinds."""

    kind = "abstract"

    def __init__(self, class_name: str, attribute: str) -> None:
        self.class_name = class_name
        self.attribute = attribute

    # subclasses implement:
    def insert(self, key: Any, oid: OID) -> None:
        raise NotImplementedError

    def remove(self, key: Any, oid: OID) -> None:
        raise NotImplementedError

    def lookup(self, key: Any) -> Set[OID]:
        raise NotImplementedError

    def supports_range(self) -> bool:
        """True when the index can serve inequality predicates."""
        return False

    def range(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Set[OID]:
        raise NotImplementedError(f"{self.kind} index cannot answer range queries")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} on {self.class_name}.{self.attribute}>"


class BTreeIndex(AttributeIndex):
    """Ordered index; keys must be mutually comparable."""

    kind = "btree"

    def __init__(self, class_name: str, attribute: str, min_degree: int = 16) -> None:
        super().__init__(class_name, attribute)
        self._tree = BTree(min_degree=min_degree)

    def insert(self, key: Any, oid: OID) -> None:
        if key is None:
            return  # NULLs are not indexed
        self._tree.insert(self._normalize(key), oid)

    def remove(self, key: Any, oid: OID) -> None:
        if key is None:
            return
        self._tree.remove(self._normalize(key), oid)

    def lookup(self, key: Any) -> Set[OID]:
        return self._tree.get(self._normalize(key))

    def supports_range(self) -> bool:
        return True

    def range(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Set[OID]:
        result: Set[OID] = set()
        for _key, oids in self._tree.range(
            self._normalize(low) if low is not None else None,
            self._normalize(high) if high is not None else None,
            include_low,
            include_high,
        ):
            result |= oids
        return result

    @staticmethod
    def _normalize(key: Any) -> Any:
        # Keys are tagged with a type rank so (a) booleans stay distinct
        # from the ints they'd otherwise equal, and (b) a mixed-type key
        # space orders deterministically instead of raising TypeError.
        if isinstance(key, bool):
            return (0, key)
        if isinstance(key, (int, float)):
            return (1, key)
        if isinstance(key, str):
            return (2, key)
        return (3, key)

    @property
    def entry_count(self) -> int:
        """Number of indexed (value, OID) pairs."""
        return self._tree.entry_count


class HashIndex(AttributeIndex):
    """Equality-only index backed by a dict of sets."""

    kind = "hash"

    def __init__(self, class_name: str, attribute: str) -> None:
        super().__init__(class_name, attribute)
        self._table: Dict[Any, Set[OID]] = {}

    def insert(self, key: Any, oid: OID) -> None:
        if key is None:
            return
        self._table.setdefault(key, set()).add(oid)

    def remove(self, key: Any, oid: OID) -> None:
        if key is None:
            return
        bucket = self._table.get(key)
        if bucket is not None:
            bucket.discard(oid)
            if not bucket:
                del self._table[key]

    def lookup(self, key: Any) -> Set[OID]:
        return set(self._table.get(key, ()))

    @property
    def entry_count(self) -> int:
        """Number of indexed (value, OID) pairs."""
        return sum(len(bucket) for bucket in self._table.values())


class IndexCatalog:
    """All indexes of one database, addressable by (class, attribute)."""

    def __init__(self) -> None:
        self._indexes: Dict[tuple, AttributeIndex] = {}
        self._attributes: Set[str] = set()

    def create(self, class_name: str, attribute: str, kind: str = "btree") -> AttributeIndex:
        """Create (or return the existing) index on ``class.attribute``."""
        key = (class_name, attribute)
        if key in self._indexes:
            return self._indexes[key]
        if kind == "btree":
            index: AttributeIndex = BTreeIndex(class_name, attribute)
        elif kind == "hash":
            index = HashIndex(class_name, attribute)
        else:
            raise ValueError(f"unknown index kind {kind!r}")
        self._indexes[key] = index
        self._attributes.add(attribute)
        return index

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
