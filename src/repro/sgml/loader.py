"""Fragmenting SGML documents into the OODBMS.

Section 4.1: "In the database, documents are fragmented in accordance with
their logical structure, i.e., for each element (e.g. section, paragraph,
footnote) in a particular SGML document there essentially is a corresponding
database object. ... So-called element-type classes corresponding to the
element-type definitions from the DTDs contain elements of that particular
type."

:class:`SGMLLoader` realizes that: registering a DTD defines one database
class per element type (all subclasses of the structural base class
``Element``), and loading a document creates one object per element, wired
with parent/children references and document order.  The navigation methods
installed on ``Element`` (``getNext``, ``getContaining``,
``getAttributeValue``, ``getTextContent`` ...) are exactly those the paper's
sample queries use (Section 4.4).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Collection, Dict, Iterable, List, Optional, Tuple

from repro.oodb.database import Database
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID
from repro.oodb.query.optimizer import MethodMap, register_method_compiler
from repro.sgml.document import Element as TreeElement
from repro.sgml.dtd import DTD

#: The structural base class every element-type class inherits from.
ELEMENT_CLASS = "Element"


# --------------------------------------------------------------------------
# Navigation: columns over stored attributes, by OID
# --------------------------------------------------------------------------
# Each navigation exists once, as a *column* ``oids -> {oid: value}`` that
# reads each attribute it needs in one store pass over the set
# (:meth:`Database.read_column`), resolves a shared ancestor or sibling list
# once and builds no handle.  The optimizer's method hook runs a column over
# a whole candidate set; the method installed on ``Element`` runs it over
# one object.  The hook keeps a column's answers across statements in the
# database's ``column_memo`` under ``(method, args)``, computing only the OIDs
# it lacks, until an attribute the column reads is written, the set of live
# objects or the schema changes (:meth:`Database.column_version`); explicit
# transactions (whose reads lock) and the per-object methods bypass it.

Column = Callable[[Iterable[OID]], Dict[OID, Any]]


def _parents(db: Database, oids: Iterable[OID]) -> Dict[OID, Optional[OID]]:
    """Each object's parent; None for a root or a reference to no object."""
    exists = db.object_exists
    return {
        oid: ref if isinstance(ref, OID) and exists(ref) else None
        for oid, ref in db.read_column(oids, "parent").items()
    }


def _containing_column(db: Database, class_name: str) -> Column:
    """Nearest ancestor of ``class_name`` (``p1 -> getContaining('MMFDOC')``),
    resolved once per distinct ancestor."""

    def containing(oids: Iterable[OID]) -> Dict[OID, Optional[OID]]:
        found: Dict[Optional[OID], Optional[OID]] = {None: None}  # ancestor -> the answer

        def resolve(up: Optional[OID]) -> Optional[OID]:
            if up not in found:
                found[up] = (up if db.schema.is_subclass(db.class_of(up), class_name)
                             else resolve(_parents(db, (up,))[up]))
            return found[up]

        return {oid: resolve(up) for oid, up in _parents(db, oids).items()}

    return containing


def _sibling_column(db: Database, forward: bool) -> Column:
    """The next (previous) sibling element (``p1 -> getNext() == p2``)."""

    def siblings(oids: Iterable[OID]) -> Dict[OID, Optional[OID]]:
        parent = _parents(db, oids)
        neighbours: Dict[Optional[OID], dict] = {None: {}}  # parent -> {child: beside it}
        for up, children in db.read_column(set(parent.values()) - {None}, "children").items():
            children = children or []
            beside = children[1:] + [None] if forward else [None] + children[:-1]
            # Reversed: a child listed twice has its first place, as ``list.index`` finds it.
            neighbours[up] = dict(zip(reversed(children), reversed(beside)))
        return {oid: neighbours[up].get(oid) for oid, up in parent.items()}

    return siblings


def _attribute_column(db: Database, name: str) -> Column:
    """SGML attribute lookup (``d -> getAttributeValue('YEAR')``)."""
    key = name.upper()
    return lambda oids: {
        oid: (attributes or {}).get(key)
        for oid, attributes in db.read_column(oids, "sgml_attributes").items()
    }


def descendants(db: Database, oids: Collection[OID]) -> Dict[OID, List[OID]]:
    """Each object's descendants (not itself) in ``getDescendants`` order —
    each child, then its own, a child listed twice walked twice — read a
    subtree level at a time; children without an object are skipped."""
    exists, kids, level = db.object_exists, {}, set(oids)
    while level:
        for oid, children in db.read_column(level, "children").items():
            kids[oid] = [child for child in children if exists(child)] if children else []
        level = {child for oid in level for child in kids[oid]}.difference(kids)

    def walk(oid: OID) -> List[OID]:
        return [d for child in kids[oid] for d in (child, *walk(child))] if kids[oid] else []

    return {oid: walk(oid) for oid in oids}


def _length_column(db: Database) -> Column:
    """Subtree text length (``p -> length()``), ``len(getTextContent())``
    without building the text: the non-empty ``content`` of the object and
    of its :func:`descendants`, a separator between each two."""

    def lengths(oids: Collection[OID]) -> Dict[OID, int]:
        below = descendants(db, oids)
        content = db.read_column(set(oids).union(*below.values()), "content")
        result = {}
        for oid, nodes in below.items():
            parts = [len(content[node]) for node in (oid, *nodes) if content[node]]
            result[oid] = sum(parts) + len(parts) - 1 if parts else 0
        return result

    return lengths


#: method -> (column factory taking the call's arguments, arity, returns objects, reads)
_COLUMNS = {
    "getParent": (lambda db: functools.partial(_parents, db), 0, True, ("parent",)),
    "getContaining": (_containing_column, 1, True, ("parent",)),
    "getNext": (functools.partial(_sibling_column, forward=True), 0, True, ("parent", "children")),
    "getPrev": (functools.partial(_sibling_column, forward=False), 0, True, ("parent", "children")),
    "getAttributeValue": (_attribute_column, 1, False, ("sgml_attributes",)),
    "length": (_length_column, 0, False, ("children", "content")),
}


def _column_method(method: str) -> Callable[..., Any]:
    """The per-object form of a column: what ``obj -> method(args)`` runs."""
    factory, _arity, refs, _reads = _COLUMNS[method]

    def navigate(obj: DBObject, *args: str) -> Any:
        value = factory(obj.database, *args)((obj.oid,))[obj.oid]
        return obj.database.get_object(value) if refs and value is not None else value

    return navigate


_NAVIGATION = {method: _column_method(method) for method in _COLUMNS}
_get_parent = _NAVIGATION["getParent"]


def _get_tag(obj: DBObject) -> str:
    return obj.get("tag")


def _get_children(obj: DBObject) -> List[DBObject]:
    db = obj.database
    return [db.get_object(child) for child in obj.get("children") or () if db.object_exists(child)]


def _get_root(obj: DBObject) -> DBObject:
    parent = _get_parent(obj)
    return obj if parent is None else _get_root(parent)


def _get_text_content(obj: DBObject) -> str:
    """The subtree's text: own content first, then children in order."""
    parts: List[str] = []
    own = obj.get("content")
    if own:
        parts.append(own)
    for child in _get_children(obj):
        child_text = _get_text_content(child)
        if child_text:
            parts.append(child_text)
    return " ".join(parts)


def _get_descendants(obj: DBObject, class_name: Optional[str] = None) -> List[DBObject]:
    """All descendants (not self), optionally filtered by class: the
    :func:`descendants` column over one object."""
    found = map(obj.database.get_object, descendants(obj.database, (obj.oid,))[obj.oid])
    return [d for d in found if class_name is None or d.isa(class_name)]


def _is_leaf(obj: DBObject) -> bool:
    return not (obj.get("children") or [])


ELEMENT_METHODS = {
    **_NAVIGATION,
    "getTag": _get_tag,
    "getChildren": _get_children,
    "getRoot": _get_root,
    "getTextContent": _get_text_content,
    "getDescendants": _get_descendants,
    "isLeaf": _is_leaf,
}


def _compile_column(method: str, db: Database, class_name: str, args: tuple):
    """``x -> method(args)`` over a range as one column over the set.

    Declines unless every class in the range answers ``method`` with the
    column's own per-object form.
    """
    factory, arity, refs, reads = _COLUMNS[method]
    if len(args) != arity or not all(isinstance(arg, str) for arg in args):
        return None
    if not db.schema.method_is(class_name, method, ELEMENT_METHODS[method]):
        return None
    column, key = factory(db, *args), (method, args)

    def kept(oids: Collection[OID], bound: Any = None) -> MethodMap:
        token = db.column_version(reads)  # before reading; None bypasses the memo
        answers = {} if token is None else db.column_memo.get(key, token)
        if answers is None:
            db.column_memo.put(key, token, answers := {})
        missing = [oid for oid in oids if oid not in answers]
        answers.update(column(missing) if missing else ())
        if token is not None:
            db.column_memo.count(not missing, bool(missing))
        return MethodMap(answers, refs=refs)

    return kept


for _method in _COLUMNS:
    register_method_compiler(_method, functools.partial(_compile_column, _method))


def _one_group(method: Callable[..., Any]) -> Callable[..., Any]:
    """Run a loader entry point as one logged group.

    One user action, one BEGIN ... COMMIT, one fsync on a durable database
    instead of one per attribute written (inside a transaction the writes
    are grouped already and the call just runs).
    """

    @functools.wraps(method)
    def grouped(self: "SGMLLoader", *args: Any, **kwargs: Any) -> Any:
        with self._db.autocommit_group():
            return method(self, *args, **kwargs)

    return grouped


class SGMLLoader:
    """Registers DTDs as class hierarchies and fragments documents.

    Parameters
    ----------
    db:
        The target database.
    base_class:
        An existing class the structural ``Element`` class should inherit
        from.  The coupling passes ``"IRSObject"`` here, making every
        document element an IRSObject as Section 4.2 requires.
    """

    def __init__(self, db: Database, base_class: Optional[str] = None) -> None:
        self._db = db
        self._base_class = base_class
        #: class name -> SGML attribute names promoted to DB attributes.
        self._promotions: dict = {}
        self._ensure_element_class()

    def _ensure_element_class(self) -> None:
        if self._db.schema.has_class(ELEMENT_CLASS):
            # Structure may have been recovered from a snapshot; methods are
            # code and must be (re-)attached either way.
            cdef = self._db.schema.get_class(ELEMENT_CLASS)
        else:
            cdef = self._db.define_class(
                ELEMENT_CLASS,
                superclass=self._base_class,
                attributes={
                    "tag": "STRING",
                    "parent": "OID",
                    "children": "LIST",
                    "content": "STRING",
                    "sgml_attributes": "DICT",
                    "doc_order": "INT",
                },
            )
        for name, impl in ELEMENT_METHODS.items():
            cdef.add_method(name, impl)

    # -- DTD registration -----------------------------------------------------

    def register_dtd(self, dtd: DTD) -> List[str]:
        """Define an element-type class per element declaration.

        Returns the list of newly defined class names.  Classes already
        defined (e.g. by another DTD sharing element names) are left alone —
        the paper's framework likewise manages "documents of arbitrary
        types" over one class pool.
        """
        created = []
        for tag in dtd.element_names():
            if not self._db.schema.has_class(tag):
                self._db.define_class(tag, superclass=ELEMENT_CLASS)
                created.append(tag)
        return created

    def ensure_element_type(self, tag: str) -> None:
        """Define a single element-type class on demand."""
        if not self._db.schema.has_class(tag.upper()):
            self._db.define_class(tag.upper(), superclass=ELEMENT_CLASS)

    # -- physical design -------------------------------------------------------

    def promote_attribute(self, class_name: str, attribute: str):
        """Promote an SGML attribute to an indexed database attribute.

        The paper's requirement (4): logical integration "must not sacrifice
        an efficient implementation ... the system must exploit the
        particular semantics of the data model and access operations for
        improved processing."  SGML attributes normally live inside the
        ``sgml_attributes`` dictionary, invisible to attribute indexes;
        promotion copies the value into a first-class attribute named like
        the SGML attribute, backfills existing instances, creates an index,
        and keeps future loads in sync — so
        ``d -> getAttributeValue('YEAR') = '1994'`` becomes an index probe
        (the optimizer recognizes the ``getAttributeValue`` shape).

        Returns the created index.
        """
        class_name = class_name.upper()
        attribute = attribute.upper()
        self.ensure_element_type(class_name)
        cdef = self._db.schema.get_class(class_name)
        if attribute not in cdef.attributes:
            self._db.add_class_attribute(class_name, attribute, "STRING")
        self._promotions.setdefault(class_name, set()).add(attribute)
        for obj in self._db.instances_of(class_name):
            value = (obj.get("sgml_attributes") or {}).get(attribute)
            if value is not None and obj.get(attribute) != value:
                obj.set(attribute, value)
        return self._db.create_index(class_name, attribute)

    def _promoted(self, class_name: str) -> List[str]:
        """The SGML attributes promoted on ``class_name`` or its ancestors."""
        schema = self._db.schema
        return [name for promoted, names in self._promotions.items()
                if schema.is_subclass(class_name, promoted) for name in names]

    @_one_group
    def set_sgml_attribute(self, element: DBObject, name: str, value: str) -> None:
        """Update an SGML attribute, keeping any promoted copy in sync."""
        name = name.upper()
        attributes = dict(element.get("sgml_attributes") or {})
        attributes[name] = value
        element.set("sgml_attributes", attributes)
        for promoted in self._promoted(element.class_name):
            if attributes.get(promoted) is not None:
                element.set(promoted, attributes[promoted])

    # -- document loading ---------------------------------------------------------

    @_one_group
    def load_document(self, root: TreeElement) -> DBObject:
        """Create one database object per element of the tree; returns the root.

        One batch: the tree is walked once in preorder (``doc_order``, and
        the order OIDs are allocated in), and each element is created with
        its ``parent``, ``children`` and promoted attributes in one record.
        """
        order: List[Tuple[TreeElement, int]] = []  # (element, its parent's position)
        below: List[List[int]] = []  # the positions of each element's children
        promoted: Dict[str, List[str]] = {}  # class -> its promoted SGML attributes
        stack = [(root, -1)]
        while stack:
            node, up = stack.pop()
            if node.tag not in promoted:
                self.ensure_element_type(node.tag)
                promoted[node.tag] = self._promoted(node.tag)
            if up >= 0:
                below[up].append(len(order))
            stack.extend((child, len(order)) for child in reversed(node.child_elements()))
            order.append((node, up))
            below.append([])
        oids = self._db.allocate_oids(len(order))
        entries = []
        for position, (node, up) in enumerate(order):
            attributes = dict(tag=node.tag, content=node.own_text(),
                              sgml_attributes=dict(node.attributes), doc_order=position)
            if up >= 0:
                attributes["parent"] = oids[up]
            attributes["children"] = [oids[child] for child in below[position]]
            attributes.update((name, node.attributes[name]) for name in promoted[node.tag]
                              if node.attributes.get(name) is not None)
            entries.append((oids[position], node.tag, attributes))
        self._db.create_objects(entries)
        return self._db.get_object(oids[0])

    @_one_group
    def delete_document(self, root: DBObject) -> int:
        """Delete a document subtree; returns the number of objects removed.

        Only the surviving parent's ``children`` is written, then each
        object of the subtree is deleted.
        """
        subtree = dict.fromkeys([root.oid, *descendants(self._db, (root.oid,))[root.oid]])
        parent = _get_parent(root)
        if parent is not None:
            siblings = list(parent.get("children") or [])
            if root.oid in siblings:
                siblings.remove(root.oid)
                parent.set("children", siblings)
        for oid in subtree:
            self._db.delete_object(oid)
        return len(subtree)

    # -- element-level editing (drives the update-propagation experiments) -------

    @_one_group
    def insert_element(
        self,
        parent: DBObject,
        tag: str,
        content: str = "",
        position: Optional[int] = None,
        attributes: Optional[dict] = None,
    ) -> DBObject:
        """Create a new element object under ``parent``, promoted copies
        of its SGML attributes included."""
        self.ensure_element_type(tag)
        attributes = dict(attributes or {})
        obj = self._db.create_object(
            tag.upper(),
            tag=tag.upper(),
            content=content,
            sgml_attributes=attributes,
            doc_order=0,
            parent=parent.oid,
            **{name: attributes[name] for name in self._promoted(tag.upper())
               if attributes.get(name) is not None},
        )
        children = list(parent.get("children") or [])
        if position is None:
            children.append(obj.oid)
        else:
            children.insert(position, obj.oid)
        parent.set("children", children)
        return obj

    def update_content(self, element: DBObject, content: str) -> None:
        """Replace an element's direct text content."""
        element.set("content", content)

    def remove_element(self, element: DBObject) -> int:
        """Delete one element and its subtree; returns objects removed."""
        return self.delete_document(element)
