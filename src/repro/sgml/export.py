"""Publishing: rendering document objects to HTML.

The MultiMedia Forum was "an interactive online journal" (Section 1) — its
documents were *served*, not only stored.  This module renders database
document trees to simple mid-90s HTML, with optional highlighting of
content-relevant elements: the reader-facing side of a mixed query ("show
me the issue, with the paragraphs relevant to WWW marked").

Rendering works from the database objects (not the original SGML text), so
edits made through the editorial workflow appear immediately.
"""

from __future__ import annotations

import html
from typing import Dict, Optional

from repro.oodb.objects import DBObject
from repro.oodb.oid import OID

#: Element tag -> (open, close) HTML for the default MMF stylesheet.
DEFAULT_STYLESHEET: Dict[str, tuple] = {
    "MMFDOC": ("<article>", "</article>"),
    "DOCTITLE": ("<h1>", "</h1>"),
    "ABSTRACT": ("<p class='abstract'><em>", "</em></p>"),
    "SECTION": ("<section>", "</section>"),
    "SECTITLE": ("<h2>", "</h2>"),
    "PARA": ("<p>", "</p>"),
    "FIGURE": ("<figure>", "</figure>"),
    "CAPTION": ("<figcaption>", "</figcaption>"),
    "LOGBOOK": ("<!-- logbook: ", " -->"),
}

#: Tags rendered as HTML comments (internal bookkeeping, not reader-facing).
_COMMENT_TAGS = {"LOGBOOK"}


class HTMLExporter:
    """Renders document subtrees to HTML.

    Parameters
    ----------
    stylesheet:
        tag -> (open, close) mapping; unknown tags render as ``<div>``.
    highlight_values:
        Optional ``{OID: IRS value}`` (e.g. a ``getIRSResult`` outcome);
        elements present get a ``relevance`` annotation and a ``<mark>``
        wrapper around their own text.
    highlight_threshold:
        Minimum value for highlighting.
    """

    def __init__(
        self,
        stylesheet: Optional[Dict[str, tuple]] = None,
        highlight_values: Optional[Dict[OID, float]] = None,
        highlight_threshold: float = 0.0,
    ) -> None:
        self._stylesheet = dict(DEFAULT_STYLESHEET)
        if stylesheet:
            self._stylesheet.update(stylesheet)
        self._highlights = highlight_values or {}
        self._threshold = highlight_threshold

    # -- public API -----------------------------------------------------------

    def render(self, obj: DBObject) -> str:
        """HTML for the subtree rooted at ``obj``."""
        return self._render(obj)

    def render_page(self, obj: DBObject, title: Optional[str] = None) -> str:
        """A complete HTML page around :meth:`render`."""
        page_title = title or obj.send("getAttributeValue", "TITLE") or obj.get("tag")
        body = self._render(obj)
        return (
            "<!DOCTYPE html>\n<html><head>"
            f"<title>{html.escape(page_title)}</title>"
            "</head><body>\n"
            f"{body}\n</body></html>\n"
        )

    # -- rendering ---------------------------------------------------------------

    def _render(self, obj: DBObject) -> str:
        tag = obj.get("tag") or "DIV"
        open_tag, close_tag = self._stylesheet.get(tag, ("<div>", "</div>"))
        if tag in _COMMENT_TAGS:
            inner = html.escape(obj.send("getTextContent"))
            return f"{open_tag}{inner}{close_tag}"
        pieces = [self._annotated_open(obj, open_tag)]
        own = (obj.get("content") or "").strip()
        if own:
            pieces.append(self._maybe_mark(obj, html.escape(own)))
        for child in obj.send("getChildren"):
            pieces.append(self._render(child))
        pieces.append(close_tag)
        return "".join(pieces)

    def _annotated_open(self, obj: DBObject, open_tag: str) -> str:
        value = self._highlights.get(obj.oid)
        if value is None or value <= self._threshold:
            return open_tag
        if open_tag.endswith(">") and not open_tag.startswith("<!--"):
            head, _sep, tail = open_tag.partition(">")
            return f'{head} data-relevance="{value:.3f}">{tail}'
        return open_tag

    def _maybe_mark(self, obj: DBObject, escaped_text: str) -> str:
        value = self._highlights.get(obj.oid)
        if value is not None and value > self._threshold:
            return f"<mark>{escaped_text}</mark>"
        return escaped_text
