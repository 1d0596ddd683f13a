"""The exact document base of Figure 4.

"Consider the MMF documents in Figure 6 [sic, printed as Figure 4] together
with the relevances for the terms 'WWW' and 'NII'":

=====  ==========================  =================================
 doc    paragraphs                  relevance pattern
=====  ==========================  =================================
 M1     P1, P2, P3                  P1: WWW only; P2, P3: neither
 M2     P4, P5                      P4: both WWW and NII; P5: neither
 M3     P6, P7, P8                  P6: WWW only; P7: NII only; P8: neither
 M4     P9, P10, P11                P10, P11: NII only; P9: neither
=====  ==========================  =================================

The paper's stipulations are honoured: "the terms 'WWW' and 'NII' are
treated equally by the IRS, and ... the paragraphs are of equal length" —
every paragraph below has exactly :data:`PARAGRAPH_WORDS` words, and the
two terms appear with identical frequencies in symmetric positions.

Expected outcomes for the query ``#and(WWW NII)`` over MMF documents
(paragraphs indexed, document values derived):

* the intuitive ranking is M2 > M3 > M4 (Section 4.5.2: returning only
  documents containing the top paragraph "will be document M2, although M3
  is relevant, too"; and "M3 and M4 ... their IRS values, however, should
  be different, because only M3 is relevant for both terms");
* ``maximum``/``average`` derivation cannot separate M3 from M4;
* the ``subquery`` scheme can.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.buffer import ResultBuffer
from repro.core.collection import _create_collection, index_objects
from repro.sgml.document import Element
from repro.sgml.mmf import build_document

#: Words per paragraph ("the paragraphs are of equal length").
PARAGRAPH_WORDS = 8

_FILLER = ["report", "describes", "general", "matters", "overall", "context"]


def _paragraph(kind: str) -> str:
    """An 8-word paragraph with the requested relevance pattern."""
    if kind == "www":
        words = ["www", "hypertext"] + _FILLER
    elif kind == "nii":
        words = ["nii", "infrastructure"] + _FILLER
    elif kind == "both":
        words = ["www", "nii"] + _FILLER
    elif kind == "none":
        words = ["plain", "matter"] + _FILLER
    else:
        raise ValueError(f"unknown paragraph kind {kind!r}")
    assert len(words) == PARAGRAPH_WORDS
    return " ".join(words)


#: Relevance pattern per document, in paragraph order (P1..P11).
PATTERNS: Dict[str, List[str]] = {
    "M1": ["www", "none", "none"],
    "M2": ["both", "none"],
    "M3": ["www", "nii", "none"],
    "M4": ["none", "nii", "nii"],
}

#: The documents that are relevant to #and(WWW NII) per Section 4.5.2
#: ("The answer will be document M2, although M3 is relevant, too").
EXPECTED_RELEVANT = ["M2", "M3"]

#: The pairwise orderings Section 4.5.2 demands of a good derivation
#: scheme: M2 strictly best, and M3 strictly above M4 ("their IRS values,
#: however, should be different, because only M3 is relevant for both
#: terms").  The M1-vs-M4 order is not constrained by the paper.
EXPECTED_PAIRS = [("M2", "M3"), ("M2", "M4"), ("M2", "M1"), ("M3", "M4"), ("M3", "M1")]


def satisfied_pairs(ranking: List[tuple]) -> List[tuple]:
    """Which of :data:`EXPECTED_PAIRS` a ranking satisfies strictly."""
    values = dict(ranking)
    return [(a, b) for a, b in EXPECTED_PAIRS if values[a] > values[b]]


def figure4_documents() -> Dict[str, Element]:
    """The four MMF document trees, keyed M1..M4."""
    documents = {}
    for name, kinds in PATTERNS.items():
        documents[name] = build_document(
            name,
            [_paragraph(kind) for kind in kinds],
            year="1994",
            logbook="figure4",
        )
    return documents


def load_figure4(system) -> Dict[str, object]:
    """Load the Figure 4 base into a DocumentSystem.

    Returns a dict with:

    * ``roots`` — {"M1": root DBObject, ...}
    * ``paragraphs`` — {"P1": PARA DBObject, ...} numbered in document and
      figure order (P1..P11)
    * ``collection`` — a paragraph-level COLLECTION named ``collPara`` (the
      figure's setting: "only paragraphs are represented in the collection")
    """
    from repro.sgml.mmf import mmf_dtd

    dtd = mmf_dtd()
    system.register_dtd(dtd)
    roots = {}
    paragraphs = {}
    counter = 1
    for name, element in figure4_documents().items():
        root = system.add_document(element, dtd=dtd)
        roots[name] = root
        for child in root.send("getChildren"):
            if child.get("tag") == "PARA":
                paragraphs[f"P{counter}"] = child
                counter += 1
    collection = _create_collection(
        system.db, "collPara", "ACCESS p FROM p IN PARA", derivation="maximum"
    )
    index_objects(collection)
    return {"roots": roots, "paragraphs": paragraphs, "collection": collection}


def rank_documents(roots: Dict[str, object], collection, irs_query: str, scheme: str) -> List[tuple]:
    """Rank M1..M4 for ``irs_query`` under a derivation scheme.

    Returns (name, value) best first, name as tiebreaker.
    """
    collection.set("derivation", scheme)
    # Derived values are amended into the persistent buffer under the same
    # query key, so switching schemes requires invalidating it first.
    ResultBuffer(collection).invalidate()
    scored = [
        (name, root.send("getIRSValue", collection, irs_query))
        for name, root in roots.items()
    ]
    return sorted(scored, key=lambda kv: (-kv[1], kv[0]))
