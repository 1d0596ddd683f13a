"""The element tree: SGML documents in memory.

An :class:`Element` has a tag, SGML attributes, and an ordered list of
children that are elements or :class:`Text` leaves.  "Its leaves are the
objects that actually contain the raw data, i.e., in most cases, the text"
(Section 4.1) — the loader maps this tree one-to-one onto database objects.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union


class Text:
    """A text leaf."""

    __slots__ = ("value", "parent")

    def __init__(self, value: str) -> None:
        self.value = value
        self.parent: Optional["Element"] = None

    def __repr__(self) -> str:
        preview = self.value if len(self.value) <= 30 else self.value[:27] + "..."
        return f"Text({preview!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Text) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Text", self.value))


Node = Union["Element", Text]


class Element:
    """One SGML element with attributes and ordered children."""

    def __init__(self, tag: str, attributes: Optional[Dict[str, str]] = None) -> None:
        self.tag = tag.upper()
        self.attributes: Dict[str, str] = {k.upper(): v for k, v in (attributes or {}).items()}
        self.children: List[Node] = []
        self.parent: Optional["Element"] = None

    # -- construction -------------------------------------------------------

    def append(self, node: Node) -> Node:
        """Attach a child (element or text leaf); returns it for chaining."""
        node.parent = self
        self.children.append(node)
        return node

    def append_text(self, value: str) -> Text:
        """Convenience: append a text leaf."""
        return self.append(Text(value))  # type: ignore[return-value]

    def append_element(self, tag: str, attributes: Optional[Dict[str, str]] = None) -> "Element":
        """Convenience: append and return a child element."""
        return self.append(Element(tag, attributes))  # type: ignore[return-value]

    # -- navigation ------------------------------------------------------------

    def child_elements(self) -> List["Element"]:
        """Direct element children, in document order."""
        return [c for c in self.children if isinstance(c, Element)]

    def iter(self) -> Iterator["Element"]:
        """This element and all descendant elements, in document order."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter()

    # -- content ------------------------------------------------------------------

    def text(self) -> str:
        """All text of the subtree, leaves joined with single spaces."""
        parts: List[str] = []
        self._collect_text(parts)
        return " ".join(p for p in parts if p.strip())

    def _collect_text(self, parts: List[str]) -> None:
        for child in self.children:
            if isinstance(child, Text):
                parts.append(child.value.strip())
            else:
                child._collect_text(parts)

    def own_text(self) -> str:
        """Only this element's direct text leaves, joined with spaces."""
        return " ".join(
            c.value.strip() for c in self.children if isinstance(c, Text) and c.value.strip()
        )

    def is_leaf(self) -> bool:
        """True when the element has no element children."""
        return not self.child_elements()

    def __repr__(self) -> str:
        return f"<Element {self.tag} children={len(self.children)}>"
