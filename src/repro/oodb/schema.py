"""Class schema: class definitions, attributes, methods, inheritance.

The paper's coupling is "provided in a database schema that is, for example,
imported into the application schema" (Section 3).  This module supplies that
machinery: a :class:`Schema` holds :class:`ClassDefinition` objects arranged
in a single-inheritance ``isA`` hierarchy; each class declares typed
attributes and named methods.  Element-type classes created by the SGML
loader (Section 4.1) and the coupling classes ``COLLECTION`` / ``IRSObject``
(Section 4.2) are all ordinary :class:`ClassDefinition` instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    SchemaError,
    UnknownAttributeError,
    UnknownClassError,
    UnknownMethodError,
)
from repro.oodb.oid import OID

#: Attribute type names understood by the schema checker.  ``ANY`` disables
#: checking; ``OID`` values reference other objects; ``LIST`` holds ordered
#: references or scalars.
ATTRIBUTE_TYPES = ("STRING", "INT", "REAL", "BOOL", "OID", "LIST", "DICT", "ANY")

_CHECKERS: Dict[str, Callable[[Any], bool]] = {
    "STRING": lambda v: isinstance(v, str),
    # An OID is an int subclass, but a reference, not a number.
    "INT": lambda v: isinstance(v, int) and not isinstance(v, (bool, OID)),
    "REAL": lambda v: isinstance(v, (int, float)) and not isinstance(v, (bool, OID)),
    "BOOL": lambda v: isinstance(v, bool),
    "OID": lambda v: isinstance(v, OID),
    "LIST": lambda v: isinstance(v, list),
    "DICT": lambda v: isinstance(v, dict),
}


@dataclass(frozen=True)
class AttributeDefinition:
    """One typed attribute of a class."""

    name: str
    type_name: str = "ANY"
    default: Any = None

    def __post_init__(self) -> None:
        if self.type_name not in ATTRIBUTE_TYPES:
            raise SchemaError(
                f"unknown attribute type {self.type_name!r} for attribute "
                f"{self.name!r}; expected one of {ATTRIBUTE_TYPES}"
            )

    def check(self, value: Any) -> bool:
        """Return True when ``value`` is acceptable for this attribute."""
        if value is None or self.type_name == "ANY":
            return True
        return _CHECKERS[self.type_name](value)


@dataclass
class ClassDefinition:
    """A database class: attributes, methods and an optional superclass.

    Methods are plain Python callables registered by name.  They receive the
    object they are invoked on (a :class:`repro.oodb.objects.DBObject`) as
    their first argument, mirroring VODAK's method dispatch.
    """

    name: str
    superclass: Optional[str] = None
    attributes: Dict[str, AttributeDefinition] = field(default_factory=dict)
    methods: Dict[str, Callable[..., Any]] = field(default_factory=dict)

    def add_attribute(self, name: str, type_name: str = "ANY", default: Any = None) -> None:
        """Declare an attribute on this class."""
        if name in self.attributes:
            raise SchemaError(f"attribute {name!r} already defined on class {self.name!r}")
        self.attributes[name] = AttributeDefinition(name, type_name, default)

    def add_method(self, name: str, func: Callable[..., Any]) -> None:
        """Register a method implementation under ``name``."""
        self.methods[name] = func


class Schema:
    """The set of class definitions of one database.

    Resolution of attributes and methods walks the ``isA`` chain from the
    most specific class upward, so subclasses may override methods — this is
    exactly how element-type classes override ``getText`` or
    ``deriveIRSValue`` inherited from ``IRSObject``.
    """

    def __init__(self) -> None:
        self._classes: Dict[str, ClassDefinition] = {}
        #: class name -> :meth:`subclasses`, replaced whenever a class is defined.
        self._subclasses: Dict[str, Tuple[str, ...]] = {}
        #: Bumped after each class or attribute definition: attribute values
        #: read with schema defaults are current while it is unchanged.
        self.generation = 0

    # -- class management --------------------------------------------------

    def define_class(
        self,
        name: str,
        superclass: Optional[str] = None,
        attributes: Optional[Dict[str, str]] = None,
    ) -> ClassDefinition:
        """Create a class.  ``attributes`` maps attribute name to type name."""
        if name in self._classes:
            raise SchemaError(f"class {name!r} already defined")
        if superclass is not None and superclass not in self._classes:
            raise UnknownClassError(f"superclass {superclass!r} of {name!r} is not defined")
        cdef = ClassDefinition(name=name, superclass=superclass)
        for attr_name, type_name in (attributes or {}).items():
            cdef.add_attribute(attr_name, type_name)
        self._classes[name] = cdef
        self._check_acyclic(name)
        self._subclasses = {}
        self.generation += 1
        return cdef

    def add_attribute(
        self, class_name: str, name: str, type_name: str = "ANY", default: Any = None
    ) -> None:
        """Declare an attribute on the existing class ``class_name``."""
        self.get_class(class_name).add_attribute(name, type_name, default)
        self.generation += 1

    def _check_acyclic(self, name: str) -> None:
        seen = set()
        current: Optional[str] = name
        while current is not None:
            if current in seen:
                del self._classes[name]
                self._subclasses = {}
                raise SchemaError(f"inheritance cycle involving class {name!r}")
            seen.add(current)
            current = self._classes[current].superclass

    def get_class(self, name: str) -> ClassDefinition:
        """Return the definition of class ``name``."""
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClassError(f"class {name!r} is not defined") from None

    def has_class(self, name: str) -> bool:
        """Return True when ``name`` is a defined class."""
        return name in self._classes

    def class_names(self) -> List[str]:
        """All class names, in definition order."""
        return list(self._classes)

    # -- hierarchy ----------------------------------------------------------

    def ancestry(self, name: str) -> Iterator[ClassDefinition]:
        """Yield the class and its superclasses, most specific first."""
        current: Optional[str] = name
        while current is not None:
            cdef = self.get_class(current)
            yield cdef
            current = cdef.superclass

    def is_subclass(self, name: str, ancestor: str) -> bool:
        """Return True when ``name`` is ``ancestor`` or inherits from it."""
        return any(cdef.name == ancestor for cdef in self.ancestry(name))

    def subclasses(self, name: str) -> Tuple[str, ...]:
        """All classes that are ``name`` or inherit from it (for extents),
        in definition order; worked out once per change of the hierarchy."""
        memo = self._subclasses  # a define replaces it: a walk it raced is dropped
        if name not in memo:
            self.get_class(name)  # validate
            memo[name] = tuple(cname for cname in self._classes if self.is_subclass(cname, name))
        return memo[name]

    # -- member resolution ---------------------------------------------------

    def find_attribute(self, class_name: str, attr: str) -> Optional[AttributeDefinition]:
        """``attr`` on the class or its ancestors, or None when undeclared."""
        for cdef in self.ancestry(class_name):
            if attr in cdef.attributes:
                return cdef.attributes[attr]
        return None

    def resolve_attribute(self, class_name: str, attr: str) -> AttributeDefinition:
        """Find ``attr`` on the class or its ancestors."""
        adef = self.find_attribute(class_name, attr)
        if adef is None:
            raise UnknownAttributeError(
                f"attribute {attr!r} is not defined on class {class_name!r} or its superclasses"
            )
        return adef

    def has_attribute(self, class_name: str, attr: str) -> bool:
        """Return True when ``attr`` resolves on ``class_name``."""
        return self.find_attribute(class_name, attr) is not None

    def resolve_method(self, class_name: str, method: str) -> Callable[..., Any]:
        """Find ``method`` on the class or its ancestors (override-aware)."""
        for cdef in self.ancestry(class_name):
            if method in cdef.methods:
                return cdef.methods[method]
        raise UnknownMethodError(
            f"method {method!r} is not defined on class {class_name!r} or its superclasses"
        )

    def has_method(self, class_name: str, method: str) -> bool:
        """Return True when ``method`` resolves on ``class_name``."""
        return any(method in cdef.methods for cdef in self.ancestry(class_name))

    def method_is(self, class_name: str, method: str, implementation: Callable[..., Any]) -> bool:
        """True when ``class_name`` and every subclass answer ``method`` with
        ``implementation`` — no class in the extent overrides or lacks it."""
        return all(
            self.has_method(cname, method)
            and self.resolve_method(cname, method) is implementation
            for cname in self.subclasses(class_name)
        )

    def all_attributes(self, class_name: str) -> Dict[str, AttributeDefinition]:
        """All attributes visible on ``class_name``, subclass ones winning."""
        merged: Dict[str, AttributeDefinition] = {}
        for cdef in reversed(list(self.ancestry(class_name))):
            merged.update(cdef.attributes)
        return merged
