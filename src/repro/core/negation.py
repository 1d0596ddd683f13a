"""Negation in mixed queries: open world vs closed world (Section 6).

"Bringing together the different assumptions ('Open World' vs. 'Closed
World') is far from trivial.  Negation, for example, has a different
meaning in both worlds."

Two semantics are available, and :func:`negation_result` makes the choice
explicit instead of silently picking one:

* **closed world** (the database view): *NOT relevant* means "not in the
  result set" — the complement of the thresholded IRS result within the
  collection's membership.  An object the IRS merely has no evidence about
  *satisfies* the negation.
* **open world** (the IR view): absence of evidence is not evidence of
  absence; ``#not`` only *downweights* belief.  An object satisfies the
  negation when its complemented belief ``1 - bel`` exceeds the threshold —
  objects with *no* evidence sit at ``1 - default_belief = 0.6``, i.e. they
  are *probably* non-relevant, not certainly.

The NEG benchmark tabulates how the two answer sets diverge.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.core.collection import _get_irs_result, member_oids
from repro.irs.models.probabilistic import DEFAULT_BELIEF
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID

CLOSED_WORLD = "closed_world"
OPEN_WORLD = "open_world"


def members(collection_obj: DBObject) -> Set[OID]:
    """The OIDs represented in the collection (the closed universe)."""
    return set(member_oids(collection_obj))


def closed_world_not(
    collection_obj: DBObject, irs_query: str, threshold: float
) -> Set[OID]:
    """Members whose IRS value does NOT exceed ``threshold``.

    Pure set complement against the membership — the semantics a database
    user expects from ``NOT (value > t)``.
    """
    values = _get_irs_result(collection_obj, irs_query)
    matching = {oid for oid, value in values.items() if value > threshold}
    return members(collection_obj) - matching


def open_world_not(
    collection_obj: DBObject, irs_query: str, threshold: float
) -> Dict[OID, float]:
    """Members whose complemented belief exceeds ``threshold``.

    Uses ``1 - bel``; members without evidence carry the complemented
    default belief (0.6), so a threshold above 0.6 demands *positive*
    evidence of non-relevance (strong counter-evidence), which no pure
    absence can provide — the open-world behaviour the paper flags.
    """
    values = _get_irs_result(collection_obj, irs_query)
    result: Dict[OID, float] = {}
    for oid in members(collection_obj):
        belief = values.get(oid, DEFAULT_BELIEF)
        complement = 1.0 - belief
        if complement > threshold:
            result[oid] = complement
    return result


def negation_result(
    collection_obj: DBObject,
    irs_query: str,
    threshold: float,
    semantics: str = CLOSED_WORLD,
) -> Set[OID]:
    """Answer "objects NOT relevant to ``irs_query``" under chosen semantics."""
    if semantics == CLOSED_WORLD:
        return closed_world_not(collection_obj, irs_query, threshold)
    if semantics == OPEN_WORLD:
        return set(open_world_not(collection_obj, irs_query, threshold))
    raise ValueError(
        f"unknown negation semantics {semantics!r}; "
        f"choose {CLOSED_WORLD!r} or {OPEN_WORLD!r}"
    )
