"""Text modes: which text represents an object in an IRS collection.

Section 4.3.2: "Each IRSObject instance provides the method getText.  It is
the application programmer's responsibility to implement this method.  In
this way, arbitrary text fragments can be associated to each database
object."  The ``mode`` parameter exists "to provide different
representations of the same IRSObject in different collections".

This module is the registry behind ``getText(mode)``.  Modes 0-3 implement
the strategies Section 4.3.1 discusses; applications may register further
modes (or per-class overrides by overriding ``getText`` on an element-type
class, exactly as the paper intends).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import CouplingError
from repro.oodb.objects import DBObject

TextProvider = Callable[[DBObject], str]

#: Mode numbers with well-known meanings.
FULL_TEXT = 0          # the complete subtree text (the paper's SGML default)
OWN_TEXT = 1           # only the element's direct content
TITLE_ABSTRACT = 2     # titles found in the subtree (auto-abstract, 4.3.1(1))
FIRST_SENTENCES = 3    # leading sentence of each leaf (user-style abstract)


def _full_text(obj: DBObject) -> str:
    """Mode 0: "by inspecting the leaves of the subtree rooted at an
    element, getText identifies its representation" (Section 4.3.2)."""
    return obj.send("getTextContent")


def _own_text(obj: DBObject) -> str:
    """Mode 1: only the element's own text leaves (finest granularity)."""
    return obj.get("content") or ""


_TITLE_TAGS = ("DOCTITLE", "SECTITLE", "TITLE", "CAPTION")


def _title_abstract(obj: DBObject) -> str:
    """Mode 2: generated abstract "e.g., from the titles of all subobjects"
    (Section 4.3.1, alternative 1)."""
    parts: List[str] = []
    attributes = obj.get("sgml_attributes") or {}
    if attributes.get("TITLE"):
        parts.append(attributes["TITLE"])
    own_tag = obj.get("tag")
    if own_tag in _TITLE_TAGS and (obj.get("content") or "").strip():
        parts.append(obj.get("content"))
    for descendant in obj.send("getDescendants"):
        if descendant.get("tag") in _TITLE_TAGS:
            text = descendant.get("content") or ""
            if text.strip():
                parts.append(text)
    return " ".join(parts)


def _first_sentences(obj: DBObject) -> str:
    """Mode 3: the first sentence of every leaf — a cheap user-style abstract."""
    sentences: List[str] = []
    own = (obj.get("content") or "").strip()
    leaves = [own] if own else []
    leaves.extend(
        (d.get("content") or "").strip()
        for d in obj.send("getDescendants")
        if d.send("isLeaf")
    )
    for text in leaves:
        if not text:
            continue
        head, _sep, _tail = text.partition(".")
        sentences.append(head.strip())
    return ". ".join(s for s in sentences if s)


_MODES: Dict[int, TextProvider] = {
    FULL_TEXT: _full_text,
    OWN_TEXT: _own_text,
    TITLE_ABSTRACT: _title_abstract,
    FIRST_SENTENCES: _first_sentences,
}


def register_text_mode(mode: int, provider: TextProvider) -> None:
    """Register (or replace) the provider behind a mode number."""
    _MODES[mode] = provider


def text_for(obj: DBObject, mode: int) -> str:
    """Produce the object's textual representation under ``mode``."""
    provider = _MODES.get(mode)
    if provider is None:
        raise CouplingError(f"unknown text mode {mode}; registered: {sorted(_MODES)}")
    return provider(obj)
