"""Content models and their validation.

A content model is an expression over element names with SGML's occurrence
indicators (``?``, ``*``, ``+``) and connectors (``,`` sequence, ``|``
choice), plus the specials ``#PCDATA``, ``EMPTY`` and ``ANY``.

Validation compiles the model to an anchored regular expression over a
child-tag alphabet — equivalent to the Glushkov automaton of the model but
reusing Python's ``re`` engine, since element names map to unique word
tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import DTDSyntaxError

PCDATA = "#PCDATA"


class ModelNode:
    """Base class of content-model expression nodes."""

    def to_regex(self) -> str:
        raise NotImplementedError

    def mentions_pcdata(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class NameToken(ModelNode):
    """A reference to a child element type (or #PCDATA)."""

    name: str

    def to_regex(self) -> str:
        if self.name == PCDATA:
            # Text leaves are not part of the child-tag sequence; whether
            # text is allowed at all is checked via ``mentions_pcdata``.
            return "(?:)"
        return f"(?:{re.escape(self.name)} )"

    def mentions_pcdata(self) -> bool:
        return self.name == PCDATA


@dataclass(frozen=True)
class Repetition(ModelNode):
    """``child?``, ``child*`` or ``child+``."""

    child: ModelNode
    indicator: str  # "?", "*", "+"

    def to_regex(self) -> str:
        return f"(?:{self.child.to_regex()}){self.indicator}"

    def mentions_pcdata(self) -> bool:
        return self.child.mentions_pcdata()


@dataclass(frozen=True)
class Sequence(ModelNode):
    """``a, b, c`` — ordered sequence."""

    children: Tuple[ModelNode, ...]

    def to_regex(self) -> str:
        return "".join(c.to_regex() for c in self.children)

    def mentions_pcdata(self) -> bool:
        return any(c.mentions_pcdata() for c in self.children)


@dataclass(frozen=True)
class Choice(ModelNode):
    """``a | b | c`` — alternatives."""

    children: Tuple[ModelNode, ...]

    def to_regex(self) -> str:
        return "(?:" + "|".join(c.to_regex() for c in self.children) + ")"

    def mentions_pcdata(self) -> bool:
        return any(c.mentions_pcdata() for c in self.children)


class ContentModel:
    """A compiled content model ready for validation."""

    def __init__(self, source: str) -> None:
        self.source = source.strip()
        self._kind, self._root = _parse_model(self.source)
        if self._root is not None:
            self._pattern = re.compile(self._root.to_regex() + r"\Z")
            self._allows_text = self._root.mentions_pcdata()
        else:
            self._pattern = None
            self._allows_text = self._kind == "ANY"

    @property
    def kind(self) -> str:
        """"EMPTY", "ANY" or "model"."""
        return self._kind

    def validate(self, child_tags: List[str], has_text: bool) -> Optional[str]:
        """Check a child sequence.

        ``child_tags`` lists direct child element tags in order; ``has_text``
        says whether any non-blank text leaf occurs among the children.
        Returns None when valid, else a human-readable message.
        """
        if self._kind == "ANY":
            return None
        if self._kind == "EMPTY":
            if child_tags or has_text:
                return "declared EMPTY but has content"
            return None
        if has_text and not self._allows_text:
            return "text content not allowed by content model"
        sentence = "".join(f"{t} " for t in child_tags)
        if self._pattern.fullmatch(sentence) is None:
            return (
                f"children ({', '.join(child_tags) or 'none'}) do not match "
                f"content model {self.source}"
            )
        return None

    def __repr__(self) -> str:
        return f"ContentModel({self.source!r})"


def _parse_model(source: str) -> Tuple[str, Optional[ModelNode]]:
    text = source.strip()
    upper = text.upper()
    if upper == "EMPTY":
        return "EMPTY", None
    if upper == "ANY":
        return "ANY", None
    parser = _ModelParser(text)
    node = parser.parse()
    return "model", node


class _ModelParser:
    """Recursive-descent parser for model expressions."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._pos = 0

    def parse(self) -> ModelNode:
        node = self._parse_group_or_name()
        self._skip_ws()
        if self._pos != len(self._text):
            raise DTDSyntaxError(
                f"trailing content in model {self._text!r} at {self._pos}"
            )
        return node

    def _skip_ws(self) -> None:
        while self._pos < len(self._text) and self._text[self._pos].isspace():
            self._pos += 1

    def _parse_group_or_name(self) -> ModelNode:
        self._skip_ws()
        if self._pos >= len(self._text):
            raise DTDSyntaxError(f"unexpected end of content model {self._text!r}")
        if self._text[self._pos] == "(":
            self._pos += 1
            node = self._parse_connector_list()
            self._skip_ws()
            if self._pos >= len(self._text) or self._text[self._pos] != ")":
                raise DTDSyntaxError(f"missing ')' in content model {self._text!r}")
            self._pos += 1
            return self._maybe_repeat(node)
        return self._maybe_repeat(self._parse_name())

    def _parse_connector_list(self) -> ModelNode:
        items = [self._parse_group_or_name()]
        connector = None
        while True:
            self._skip_ws()
            if self._pos < len(self._text) and self._text[self._pos] in ",|":
                ch = self._text[self._pos]
                if connector is None:
                    connector = ch
                elif connector != ch:
                    raise DTDSyntaxError(
                        f"mixed connectors in one group in model {self._text!r}"
                    )
                self._pos += 1
                items.append(self._parse_group_or_name())
            else:
                break
        if len(items) == 1:
            return items[0]
        if connector == ",":
            return Sequence(tuple(items))
        return Choice(tuple(items))

    def _parse_name(self) -> ModelNode:
        self._skip_ws()
        start = self._pos
        if self._pos < len(self._text) and self._text[self._pos] == "#":
            self._pos += 1
        while self._pos < len(self._text) and (
            self._text[self._pos].isalnum() or self._text[self._pos] in "._-"
        ):
            self._pos += 1
        name = self._text[start:self._pos]
        if not name:
            raise DTDSyntaxError(
                f"expected element name at position {start} in model {self._text!r}"
            )
        name = name.upper()
        if name.startswith("#") and name != PCDATA:
            raise DTDSyntaxError(f"unknown reserved name {name!r}")
        return NameToken(name)

    def _maybe_repeat(self, node: ModelNode) -> ModelNode:
        if self._pos < len(self._text) and self._text[self._pos] in "?*+":
            indicator = self._text[self._pos]
            self._pos += 1
            return Repetition(node, indicator)
        return node
