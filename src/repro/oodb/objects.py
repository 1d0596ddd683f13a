"""Database objects.

A :class:`DBObject` is a handle onto one persistent object: an OID, a class
name, and an attribute dictionary managed by the store.  Method invocation
uses the ``send`` call, mirroring the ``obj -> method(args)`` arrow syntax of
the query language; the schema resolves the implementation along the ``isA``
chain so that, e.g., a ``PARA`` element object answers ``getIRSValue`` with
the implementation inherited from ``IRSObject``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.oodb.oid import OID

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.oodb.database import Database


class DBObject:
    """A handle on a persistent database object.

    Attribute reads go through :meth:`get`; writes through :meth:`set` so the
    store can log them for recovery and so indexes stay maintained.  The
    handle itself is cheap and may be held across transactions — it carries
    no cached state besides OID and class name.
    """

    __slots__ = ("_db", "oid", "class_name")

    def __init__(self, db: "Database", oid: OID, class_name: str) -> None:
        self._db = db
        self.oid = oid
        self.class_name = class_name

    # -- identity ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DBObject) and other.oid == self.oid

    def __hash__(self) -> int:
        return hash(self.oid)

    def __repr__(self) -> str:
        return f"<{self.class_name} {self.oid}>"

    # -- attributes -----------------------------------------------------------

    def get(self, attr: str) -> Any:
        """Read attribute ``attr`` (default value when never written)."""
        return self._db.read_attribute(self.oid, attr)

    def set(self, attr: str, value: Any) -> None:
        """Write attribute ``attr`` with schema type checking."""
        self._db.write_attribute(self.oid, attr, value)

    def attributes(self) -> Dict[str, Any]:
        """A snapshot of all attribute values (including defaults)."""
        return self._db.read_attributes(self.oid)

    # -- behaviour -------------------------------------------------------------

    def send(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke ``method`` on this object (the ``->`` of the query language)."""
        impl = self._db.schema.resolve_method(self.class_name, method)
        return impl(self, *args, **kwargs)

    def responds_to(self, method: str) -> bool:
        """Return True when the object's class defines/inherits ``method``."""
        return self._db.schema.has_method(self.class_name, method)

    def isa(self, class_name: str) -> bool:
        """Return True when the object's class is or inherits ``class_name``."""
        return self._db.schema.is_subclass(self.class_name, class_name)

    # -- navigation -------------------------------------------------------------

    @property
    def database(self) -> "Database":
        """The database this handle belongs to."""
        return self._db
