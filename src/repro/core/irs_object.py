"""The ``IRSObject`` coupling class (Section 4.2).

"Each document element is a subclass of database class IRSObject."  The
class contributes three methods:

* ``getText(mode)`` — the object's textual representation (delegating to
  the text-mode registry; element-type classes may override);
* ``getIRSValue(collection, irsQuery)`` — "with this method each object
  knows its IRS value, in accordance with the object paradigm";
* ``deriveIRSValue(collection, irsQuery)`` — "called whenever an object's
  IRS value is required, but the object is not represented in the IRS
  collection".

Collection choice (Section 4.5.1): the collection argument may be (1) a
COLLECTION object/OID passed explicitly, (2) omitted, falling back to the
object's ``default_collection`` attribute (the "hard wired" variant), or
(3) omitted with a per-class ``chooseCollection`` override (the
"sophisticated choice of the IRSObject itself").
"""

from __future__ import annotations

from typing import Any, Optional

from repro import obs
from repro.core import derivation
from repro.core.text_modes import text_for
from repro.errors import CouplingError
from repro.oodb.database import Database
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID

IRSOBJECT_CLASS = "IRSObject"


def define_irs_object_class(db: Database) -> None:
    """Define the IRSObject class with its coupling methods.

    Idempotent — re-attaches methods when the class structure came back
    from a snapshot (methods are code, never persisted).
    """
    if db.schema.has_class(IRSOBJECT_CLASS):
        cdef = db.schema.get_class(IRSOBJECT_CLASS)
    else:
        cdef = db.define_class(
            IRSOBJECT_CLASS,
            attributes={"default_collection": "OID"},
        )
    cdef.add_method("getText", get_text)
    cdef.add_method("getIRSValue", get_irs_value)
    cdef.add_method("deriveIRSValue", derive_irs_value)
    cdef.add_method("setDefaultCollection", set_default_collection)


# --------------------------------------------------------------------------
# IRSObject methods
# --------------------------------------------------------------------------

def get_text(obj: DBObject, mode: int = 0) -> str:
    """``getText(mode)`` — the textual representation for one collection.

    "To allow for different results of getText for different IRS
    collections, the method is parameterized."  The default dispatches to
    the text-mode registry; element-type classes override this method to
    attach arbitrary text (Section 5 does so for images and link targets).
    """
    return text_for(obj, mode)


def get_irs_value(obj: DBObject, collection: Any = None, irs_query: Optional[str] = None) -> float:
    """``getIRSValue(c, IRSQuery)`` — the object's relevance to a query.

    "In essence, it merely consists of an invocation of the method
    findIRSValue for argument c" (Section 4.2) — after determining the
    COLLECTION instance per Section 4.5.1 when none was given.
    """
    if irs_query is None:
        # Permit getIRSValue('WWW') with the collection omitted.
        if isinstance(collection, str):
            collection, irs_query = None, collection
        else:
            raise CouplingError("getIRSValue needs an IRS query string")
    collection_obj = _resolve(obj, collection)
    obs.metrics().counter("coupling.getIRSValue.calls").inc()
    return collection_obj.send("findIRSValue", irs_query, obj)


def derive_irs_value(obj: DBObject, collection: Any, irs_query: str) -> float:
    """``deriveIRSValue(c, IRSQuery)`` — value from related objects' values.

    The default implementation dispatches to the collection's configured
    derivation scheme (Section 4.5.2); element-type classes override this
    method for application-specific computations, e.g. link-based
    derivation for hypertext nodes (Section 5).
    """
    collection_obj = _resolve(obj, collection)
    obs.metrics().counter("coupling.derivations").inc()
    with obs.tracer().span(
        "coupling.deriveIRSValue",
        oid=str(obj.oid),
        scheme=collection_obj.get("derivation") or "maximum",
    ) as span:
        value = derivation.derive(collection_obj, irs_query, obj)
        span.set_attribute("value", round(value, 6))
    return value


def set_default_collection(obj: DBObject, collection: Any) -> None:
    """Hard-wire the collection used when getIRSValue gets none (4.5.1(1))."""
    collection_obj = _resolve_explicit(obj.database, collection)
    obj.set("default_collection", collection_obj.oid)


# --------------------------------------------------------------------------
# Collection resolution (Section 4.5.1)
# --------------------------------------------------------------------------

def _resolve(obj: DBObject, collection: Any) -> DBObject:
    if collection is not None:
        return _resolve_explicit(obj.database, collection)
    # (3) "a sophisticated choice of the IRSObject itself": honour a
    # per-class chooseCollection override when one exists.
    if obj.responds_to("chooseCollection"):
        chosen = obj.send("chooseCollection")
        if chosen is not None:
            return _resolve_explicit(obj.database, chosen)
    # (1) the hard-wired default.
    default = obj.get("default_collection")
    if isinstance(default, OID) and obj.database.object_exists(default):
        return obj.database.get_object(default)
    raise CouplingError(
        f"{obj!r} has no collection: pass one to getIRSValue, set a default "
        "with setDefaultCollection, or define chooseCollection on the class"
    )


def _resolve_explicit(db: Database, collection: Any) -> DBObject:
    from repro.core.collection import COLLECTION_CLASS

    if isinstance(collection, DBObject):
        obj = collection
    elif isinstance(collection, OID):
        obj = db.get_object(collection)
    else:
        raise CouplingError(f"not a COLLECTION reference: {collection!r}")
    if not obj.isa(COLLECTION_CLASS):
        raise CouplingError(f"{obj!r} is not a COLLECTION instance")
    return obj
