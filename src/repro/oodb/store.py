"""The object store: in-memory object table and its image lines.

Objects live in a dictionary ``oid -> _StoredObject`` with per-class extents
maintained incrementally.  Their durable image is the ``objects`` section of
the store file (``irs.store``, :class:`repro.store.SingleFileStore`): each
checkpoint appends one ``KIND_OBJECTS`` record, an :func:`object_line` for
each object whose write version moved; recovery reads the newest line of
each object and replays committed WAL records on top (see
:class:`repro.oodb.database.Database`).

Attribute values are restricted to a JSON-encodable universe extended with
:class:`~repro.oodb.oid.OID` references (encoded as ``{"__oid__": n}``),
which is what the document application needs: strings, numbers, booleans,
lists and dicts of these, and object references.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ObjectNotFoundError
from repro.oodb.oid import OID


def encode_value(value: Any) -> Any:
    """Translate a stored value into a JSON-encodable structure."""
    if isinstance(value, OID):
        return {"__oid__": value.value}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, dict):
        return {"__dict__": [[encode_value(k), encode_value(v)] for k, v in value.items()]}
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        if len(value) == 1:
            ((key, inner),) = value.items()
            if key == "__oid__":
                return OID(inner)
            if key == "__tuple__":
                return tuple(decode_value(v) for v in inner)
            if key == "__dict__":
                return {decode_value(k): decode_value(v) for k, v in inner}
        return {k: decode_value(v) for k, v in value.items()}
    return value


@dataclass
class _StoredObject:
    class_name: str
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: Count of attribute mutations applied to this object, undo included
    #: (process-local, never persisted).  Caches derived from the object's
    #: attributes compare it to tell whether they are still current.  It
    #: advances *after* the mutation, so a reader that takes the version
    #: before reading the attributes can trust a cache tagged with it: a
    #: write racing with the read leaves the tag behind the version.
    version: int = 0


class ObjectStore:
    """The object table plus class extents."""

    def __init__(self) -> None:
        self._objects: Dict[OID, _StoredObject] = {}
        self._extents: Dict[str, Set[OID]] = {}
        #: Held while an object's attributes (or a dictionary inside them)
        #: change and while :meth:`encode_changed` encodes them, so a checkpoint
        #: never iterates a dictionary another thread is adding items to.
        #: Re-entrant: a writer keeps it over a batch of item writes that
        #: readers must see whole (:meth:`Database.store_lock`).
        self._write_lock = threading.RLock()
        #: Per attribute name, a write version like an object's ``version``.
        self.attribute_versions: Dict[str, int] = defaultdict(int)
        self.deletions = 0  # objects deleted so far (:meth:`Database.column_version`)

    # -- object lifecycle -----------------------------------------------------

    def create(self, oid: OID, class_name: str, attributes: Optional[dict] = None) -> None:
        """Register a new object of ``class_name`` under ``oid``; the object
        takes ``attributes`` over, not a copy."""
        if oid in self._objects:
            raise ValueError(f"{oid} already exists")
        self._objects[oid] = _StoredObject(class_name, {} if attributes is None else attributes)
        self._extents.setdefault(class_name, set()).add(oid)

    def delete(self, oid: OID) -> _StoredObject:
        """Remove the object; returns its last state (for undo)."""
        stored = self._require(oid)
        with self._write_lock:
            del self._objects[oid]
            self._extents[stored.class_name].discard(oid)
            self.deletions += 1
        return stored

    def restore(self, oid: OID, stored: _StoredObject) -> None:
        """Reinstate a deleted object (transaction rollback)."""
        self._objects[oid] = stored
        self._extents.setdefault(stored.class_name, set()).add(oid)
        with self._write_lock:
            stored.version += 1

    def exists(self, oid: OID) -> bool:
        """Return True when ``oid`` denotes a live object."""
        return oid in self._objects

    def _require(self, oid: OID) -> _StoredObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise ObjectNotFoundError(f"no object with {oid}") from None

    # -- attributes ---------------------------------------------------------------

    def class_of(self, oid: OID) -> str:
        """The class name of the object."""
        return self._require(oid).class_name

    def read(self, oid: OID, attr: str, default: Any = None) -> Any:
        """Read one attribute (``default`` when never written)."""
        return self._require(oid).attributes.get(attr, default)

    def read_column(self, oids: Iterable[OID], attr: str, default: Any = None) -> Dict[OID, Any]:
        """:meth:`read` of every OID, in one pass over the object table."""
        objects = self._objects
        try:
            return {oid: objects[oid].attributes.get(attr, default) for oid in oids}
        except KeyError as exc:
            raise ObjectNotFoundError(f"no object with {exc.args[0]}") from None

    def write(self, oid: OID, attr: str, value: Any) -> Any:
        """Write one attribute; returns the previous value (for undo)."""
        stored = self._require(oid)
        with self._write_lock:
            previous = stored.attributes.get(attr, _MISSING)
            stored.attributes[attr] = value
            stored.version += 1
            self.attribute_versions[attr] += 1
        return previous

    def unwrite(self, oid: OID, attr: str, previous: Any) -> None:
        """Undo a write: restore ``previous`` (or remove when it was missing)."""
        self.unwrite_item(oid, (attr, self._require(oid).attributes, attr, previous))

    def write_item(
        self, oid: OID, attr: str, path: Sequence[Any], value: Any = None, delete: bool = False
    ) -> Tuple[int, Tuple[str, dict, Any, Any]]:
        """Set ``attributes[attr][path[0]]...[path[-1]] = value`` in place.

        Dictionaries missing (or None) along the path are created.  With
        ``delete`` the item is removed instead; nothing changes when it, or
        a dictionary on the way to it, is already gone.  Costs O(len(path))
        whatever the size of the dictionary.  Returns the object's new
        write version and an undo token for :meth:`unwrite_item`.
        """
        stored = self._require(oid)
        keys = (attr, *path)
        with self._write_lock:
            node = stored.attributes
            for depth, key in enumerate(keys[:-1]):
                child = node.get(key)
                if child is None:
                    if delete:
                        node, key = {}, keys[-1]  # nothing to remove
                        break
                    # Attach the whole missing chain with one assignment.
                    for missing in reversed(keys[depth + 1 :]):
                        value = {missing: value}
                    break
                if not isinstance(child, dict):
                    raise TypeError(
                        f"cannot set item {list(path)!r} of {attr!r}: "
                        f"{key!r} holds {type(child).__name__}, not a dict"
                    )
                node = child
            else:
                key = keys[-1]
            token = (attr, node, key, node.get(key, _MISSING))
            if delete:
                node.pop(key, None)
            else:
                node[key] = value
            stored.version += 1
            self.attribute_versions[attr] += 1
            return stored.version, token

    def unwrite_item(self, oid: OID, token: Tuple[str, dict, Any, Any]) -> None:
        """Undo :meth:`write_item`: put back what the changed key held.

        The token names the dictionary the write changed, not a path to it:
        when that dictionary has since been replaced on the object (an
        autocommit reset of the attribute from another thread), the item is
        gone with it and the undo changes only the detached dictionary.
        """
        stored = self._require(oid)
        attr, node, key, previous = token
        with self._write_lock:
            if previous is _MISSING:
                node.pop(key, None)
            else:
                node[key] = previous
            stored.version += 1
            self.attribute_versions[attr] += 1

    def version_of(self, oid: OID) -> int:
        """The object's write version (see :class:`_StoredObject`)."""
        return self._require(oid).version

    def read_all(self, oid: OID) -> Dict[str, Any]:
        """A copy of all explicitly written attributes."""
        return dict(self._require(oid).attributes)

    # -- extents ---------------------------------------------------------------------

    def extent(self, class_name: str) -> Set[OID]:
        """OIDs of direct instances of ``class_name`` (no subclasses)."""
        return set(self._extents.get(class_name, ()))

    def extent_size(self, class_name: str) -> int:
        """Number of direct instances of ``class_name``."""
        return len(self._extents.get(class_name, ()))

    def all_oids(self) -> Iterator[OID]:
        """Every live OID."""
        return iter(list(self._objects))

    def __len__(self) -> int:
        return len(self._objects)

    # -- durable image ----------------------------------------------------------

    def load_image(self, entries: Dict[int, bytes]) -> None:
        """Add the objects of an image: OID -> the ``[class, attributes]``
        part of its newest :func:`object_line`, parsed in one pass."""
        decoded = json.loads(b"[" + b",".join(entries.values()) + b"]")
        for oid, (class_name, attributes) in zip(entries, decoded):
            self.create(OID(oid), class_name, {k: decode_value(v) for k, v in attributes.items()})

    def encode_changed(self, select: Callable[[Dict[OID, int]], List[OID]]) -> List[bytes]:
        """The :func:`object_line` of each object ``select`` picks from the
        write versions of all live objects, in its order.

        The versions are read and the lines encoded under the write lock,
        so no writer changes a dictionary while it is encoded.
        """
        with self._write_lock:
            objects = self._objects
            return [
                object_line(oid, objects[oid].class_name, {
                    k: encode_value(v) for k, v in objects[oid].attributes.items()
                })
                for oid in select({oid: stored.version for oid, stored in objects.items()})
            ]


def object_line(oid: int, class_name: str, attributes: Dict[str, Any]) -> bytes:
    """One object of a ``KIND_OBJECTS`` record: ``<oid> [class, attributes]``,
    the attributes in the value encoding, in their order."""
    return b"%d %s" % (oid, json.dumps([class_name, attributes], separators=(",", ":")).encode("ascii"))


_MISSING = object()  # 'attribute never written', as distinct from None
