"""Typed hypertext links stored in the OODBMS.

"Hypermedia documents may be structured hierarchically as well as by means
of arbitrary hypertext links" (Section 1.2, property 1).  Links are
first-class database objects of class ``LINK`` with ``source``, ``target``
and ``link_type`` attributes; hash indexes on source and target make
neighbourhood lookups cheap.
"""

from __future__ import annotations

from typing import List, Optional

from repro.oodb.database import Database
from repro.oodb.objects import DBObject

LINK_CLASS = "LINK"

#: The binary link type of the paper's example: "consider a hypertext-
#: document type containing a binary link type implies".
IMPLIES = "implies"
#: Media description links: text fragment -> image it references.
DESCRIBES = "describes"


def define_link_class(db: Database) -> None:
    """Define the LINK class and its lookup indexes (idempotent)."""
    if db.schema.has_class(LINK_CLASS):
        return
    db.define_class(
        LINK_CLASS,
        attributes={
            "source": "OID",
            "target": "OID",
            "link_type": "STRING",
        },
    )
    db.create_index(LINK_CLASS, "source")
    db.create_index(LINK_CLASS, "target")


def create_link(
    db: Database, source: DBObject, target: DBObject, link_type: str = IMPLIES
) -> DBObject:
    """Create a typed link from ``source`` to ``target``."""
    define_link_class(db)
    return db.create_object(
        LINK_CLASS, source=source.oid, target=target.oid, link_type=link_type
    )


def _link_objects(db: Database, attr: str, obj: DBObject, link_type: Optional[str]) -> List[DBObject]:
    if not db.schema.has_class(LINK_CLASS):
        return []  # no link has ever been created in this database
    index = db.indexes.find(LINK_CLASS, attr)
    oids = None if index is None else index.lookup(obj.oid)
    if oids is not None:
        links = [db.get_object(oid) for oid in sorted(oids)]
    else:
        links = [l for l in db.instances_of(LINK_CLASS) if l.get(attr) == obj.oid]
    if link_type is not None:
        links = [l for l in links if l.get("link_type") == link_type]
    return links


def links_from(obj: DBObject, link_type: Optional[str] = None) -> List[DBObject]:
    """Links whose source is ``obj``."""
    return _link_objects(obj.database, "source", obj, link_type)


def links_to(obj: DBObject, link_type: Optional[str] = None) -> List[DBObject]:
    """Links whose target is ``obj``."""
    return _link_objects(obj.database, "target", obj, link_type)


def neighbours_out(obj: DBObject, link_type: Optional[str] = None) -> List[DBObject]:
    """Objects this object links to."""
    db = obj.database
    return [
        db.get_object(link.get("target"))
        for link in links_from(obj, link_type)
        if db.object_exists(link.get("target"))
    ]


def neighbours_in(obj: DBObject, link_type: Optional[str] = None) -> List[DBObject]:
    """Objects linking to this object."""
    db = obj.database
    return [
        db.get_object(link.get("source"))
        for link in links_to(obj, link_type)
        if db.object_exists(link.get("source"))
    ]


# --------------------------------------------------------------------------
# Declarative SGML linking (HyTime flavour)
# --------------------------------------------------------------------------

def wire_sgml_links(
    db: Database,
    root: DBObject,
    id_attribute: str = "ID",
    linkend_attribute: str = "LINKEND",
    type_attribute: str = "LINKTYPE",
    default_type: str = IMPLIES,
) -> List[DBObject]:
    """Create LINK objects from SGML linking attributes in a document tree.

    HyTime-style convention: an element carrying ``LINKEND="some-id"``
    links to the element whose ``ID`` attribute equals ``some-id``
    (anywhere in the database, so cross-document hypertext works);
    ``LINKTYPE`` selects the link type (default ``implies``).  Returns the
    links created.  Dangling LINKENDs are ignored — hypertext is an open
    world.
    """
    define_link_class(db)
    targets_by_id = {}
    for obj in db.iter_objects():
        if not obj.responds_to("getAttributeValue"):
            continue
        identifier = obj.send("getAttributeValue", id_attribute)
        if identifier:
            targets_by_id[identifier] = obj

    created = []
    elements = [root] + list(root.send("getDescendants"))
    for element in elements:
        linkend = element.send("getAttributeValue", linkend_attribute)
        if not linkend:
            continue
        target = targets_by_id.get(linkend)
        if target is None:
            continue
        link_type = element.send("getAttributeValue", type_attribute) or default_type
        created.append(create_link(db, element, target, link_type))
    return created
