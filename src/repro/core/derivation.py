"""Derivation schemes: IRS values for objects not represented in the IRS.

Section 4.5.2 is the paper's analytical heart: when only paragraphs are
indexed, how does an MMF document answer ``getIRSValue``?  "With our
framework the computation is left open to the application.  The application
programmer has to decide how derived IRS values should be computed."

This module ships the paper's tested scheme plus every alternative it
discusses:

``maximum``
    "We for our part have run tests with an implementation of
    deriveIRSValue iterating through the elements components and
    determining the maximal IRS value."
``average``
    "compute the average ... of IRS values of all components" [CST92].
``weighted_type``
    "take into consideration the type of the parts, e.g., by weighting the
    types" [Wil94] — weights per element tag from the collection's
    ``type_weights`` attribute.
``length_weighted``
    "Both the component's and the composite's length would be arguments of
    the derivation scheme" — components weighted by their share of the
    composite's text.
``subquery``
    The paper's proposed fix for the M3-vs-M4 anomaly: "the information how
    relevant elements are to the subqueries must be exploited.  Hence,
    first of all, the subqueries need to be identified."  The IRS query is
    decomposed into its top-level subqueries; each subquery's best
    component value is computed; the per-subquery maxima are re-combined
    with the query's own operator semantics.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.context import coupling_context
from repro.errors import CouplingError
from repro.irs.models import operators as ops
from repro.irs.queries import (
    OperatorNode,
    ProximityNode,
    TermNode,
    format_query,
    parse_irs_query,
)
from repro.oodb.objects import DBObject

#: A derivation scheme maps (collection object, IRS query, target object)
#: to a derived IRS value.
DerivationScheme = Callable[[DBObject, str, DBObject], float]


def component_values(
    collection_obj: DBObject, irs_query: str, obj: DBObject
) -> List[Tuple[DBObject, float]]:
    """IRS values of the object's indexed components.

    Components are the descendants of ``obj`` that are represented in the
    collection; represented-but-unmatched components contribute 0.0 (the
    paper: "good computation schemes combine all components' IRS values,
    not only highly ranked ones").
    """
    from repro.core import collection as coll  # deferred: avoids an import cycle

    values = coll._get_irs_result(collection_obj, irs_query)
    members = coll.member_oids(collection_obj)
    return [
        (descendant, values.get(descendant.oid, 0.0))
        for descendant in obj.send("getDescendants")
        if descendant.oid in members
    ]


def maximum(values: List[float]) -> float:
    """Maximum over component values (the paper's tested scheme)."""
    return max(values, default=0.0)


def average(values: List[float]) -> float:
    """Mean over component values [CST92]."""
    return sum(values) / len(values) if values else 0.0


def derive_maximum(collection_obj: DBObject, irs_query: str, obj: DBObject) -> float:
    """:func:`maximum` over the object's component values."""
    return maximum([value for _c, value in component_values(collection_obj, irs_query, obj)])


def derive_average(collection_obj: DBObject, irs_query: str, obj: DBObject) -> float:
    """:func:`average` over the object's component values."""
    return average([value for _c, value in component_values(collection_obj, irs_query, obj)])


def derive_weighted_type(collection_obj: DBObject, irs_query: str, obj: DBObject) -> float:
    """Type-weighted mean [Wil94]; weights from ``type_weights`` (default 1)."""
    components = component_values(collection_obj, irs_query, obj)
    if not components:
        return 0.0
    weights = collection_obj.get("type_weights") or {}
    total_weight = total = 0.0
    for component, value in components:
        weight = float(weights.get(component.get("tag"), 1.0))
        total_weight += weight
        total += weight * value
    return total / total_weight if total_weight else 0.0


def derive_length_weighted(collection_obj: DBObject, irs_query: str, obj: DBObject) -> float:
    """Length-weighted mean: long components dominate short ones."""
    components = component_values(collection_obj, irs_query, obj)
    if not components:
        return 0.0
    lengths = [max(1, component.send("length")) for component, _v in components]
    total = sum(length * value for length, (_c, value) in zip(lengths, components))
    return total / sum(lengths)


def derive_subquery(collection_obj: DBObject, irs_query: str, obj: DBObject) -> float:
    """Subquery-aware derivation (Section 4.5.2's proposal).

    The query is decomposed into its top-level subqueries.  For each
    subquery the *best* component value is determined (a composite is as
    relevant to a subtopic as its most relevant part); the per-subquery
    evidence is then recombined with the top-level operator's own
    semantics.  ``#and(WWW NII)`` therefore rewards documents covering
    *both* terms anywhere among their components, distinguishing M3 (WWW
    paragraph + NII paragraph) from M4 (two NII paragraphs) — which
    ``maximum`` and ``average`` provably cannot.
    """
    tree = parse_irs_query(irs_query)
    if isinstance(tree, (TermNode, ProximityNode)):
        # Terms and proximity windows are atomic subqueries.
        return derive_maximum(collection_obj, irs_query, obj)
    if not isinstance(tree, OperatorNode):  # pragma: no cover - parser guarantees
        raise CouplingError(f"cannot decompose IRS query {irs_query!r}")
    sub_maxima = [
        derive_subquery(collection_obj, format_query(child), obj)
        for child in tree.children
    ]
    if tree.op == "not":
        return ops.op_not(sub_maxima[0])
    if tree.op == "wsum":
        return ops.op_wsum(tree.weights, sub_maxima)
    combine = {"and": ops.op_and, "or": ops.op_or, "sum": ops.op_sum, "max": ops.op_max}
    if tree.op not in combine:  # pragma: no cover
        raise CouplingError(f"no combination rule for operator #{tree.op}")
    return combine[tree.op](sub_maxima)


def derive_subquery_locality(collection_obj: DBObject, irs_query: str, obj: DBObject) -> float:
    """Subquery coverage blended with single-passage locality.

    The pure subquery scheme measures whether *some* component covers each
    subtopic but is blind to whether one component covers them together —
    yet a document whose single paragraph discusses both topics (M2) is
    intuitively stronger than one spreading them over two paragraphs (M3).
    Averaging the subquery-coverage evidence with the best whole-query
    component value (locality evidence) recovers the full intuitive order
    M2 > M3 > M4 of Section 4.5.2.
    """
    coverage = derive_subquery(collection_obj, irs_query, obj)
    locality = derive_maximum(collection_obj, irs_query, obj)
    return (coverage + locality) / 2.0


def derive_passage(collection_obj: DBObject, irs_query: str, obj: DBObject) -> float:
    """Passage-retrieval derivation (Section 6's [SAB93] candidate).

    The composite's subtree text is scored by its best sliding window
    against the collection's statistics.  Unlike the component-combination
    schemes this sees *local co-occurrence*: a document whose single
    paragraph covers both ``#and`` terms beats one that spreads them —
    without any redundant indexing of the composite.
    """
    from repro.irs.passages import PassageScorer  # deferred: optional machinery

    context = coupling_context(obj.database)
    irs_collection = context.engine.collection(collection_obj.get("irs_name"))
    scorer = PassageScorer(irs_collection)
    text = obj.send("getTextContent") if obj.responds_to("getTextContent") else ""
    return scorer.best_score(text, irs_query)


_SCHEMES: Dict[str, DerivationScheme] = {
    "maximum": derive_maximum,
    "average": derive_average,
    "weighted_type": derive_weighted_type,
    "length_weighted": derive_length_weighted,
    "subquery": derive_subquery,
    "subquery_locality": derive_subquery_locality,
    "passage": derive_passage,
}


def register_scheme(name: str, scheme: DerivationScheme) -> None:
    """Register (or replace) a derivation scheme under ``name``."""
    _SCHEMES[name] = scheme


def scheme_named(name: str) -> DerivationScheme:
    """Look up a scheme; raises :class:`CouplingError` when unknown."""
    if name not in _SCHEMES:
        raise CouplingError(
            f"unknown derivation scheme {name!r}; registered: {sorted(_SCHEMES)}"
        )
    return _SCHEMES[name]


def combination(collection_obj: DBObject) -> Optional[Callable[[List[float]], float]]:
    """What the collection's scheme combines a composite's ordered component
    values with when it reads nothing else: ``maximum``, ``average`` or None."""
    scheme = _SCHEMES.get(collection_obj.get("derivation") or "maximum")
    return maximum if scheme is derive_maximum else average if scheme is derive_average else None


def derive(collection_obj: DBObject, irs_query: str, obj: DBObject) -> float:
    """Apply the collection's configured scheme and count the derivation."""
    context = coupling_context(obj.database)
    context.counters.add("derivations")
    scheme = scheme_named(collection_obj.get("derivation") or "maximum")
    return scheme(collection_obj, irs_query, obj)
