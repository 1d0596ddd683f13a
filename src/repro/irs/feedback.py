"""Relevance feedback (Rocchio query expansion).

Section 6 names relevance feedback as an open, application-independent
facet of the coupling.  This module supplies the classic Rocchio mechanism
at the IRS level: given judged-relevant (and optionally non-relevant)
documents, term weights are recomputed as

    w(t) = alpha * q(t) + beta * mean_rel tf-idf(t) - gamma * mean_nonrel tf-idf(t)

and the top-k positive terms form an expanded ``#wsum`` query that any
retrieval model of the engine can evaluate.  The coupling exposes it per
COLLECTION via :mod:`repro.core.feedback` (judgments arrive as OIDs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.irs.collection import IRSCollection
from repro.irs.queries import parse_irs_query


@dataclass(frozen=True)
class FeedbackParameters:
    """Rocchio coefficients and expansion size."""

    alpha: float = 1.0   # weight of the original query terms
    beta: float = 0.75   # weight of the relevant centroid
    gamma: float = 0.15  # weight of the non-relevant centroid
    expansion_terms: int = 8

    def __post_init__(self) -> None:
        if self.expansion_terms < 1:
            raise ValueError("expansion_terms must be >= 1")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("Rocchio coefficients must be non-negative")


def _tf_idf_vector(collection: IRSCollection, doc_id: int) -> Dict[str, float]:
    index = collection.index
    n_docs = index.document_count
    vector = {}
    for term, tf in index.document_vector(doc_id).items():
        idf = math.log(1.0 + n_docs / index.document_frequency(term))
        vector[term] = (1.0 + math.log(tf)) * idf
    return vector


def _centroid(collection: IRSCollection, doc_ids: Iterable[int]) -> Dict[str, float]:
    doc_ids = list(doc_ids)
    if not doc_ids:
        return {}
    total: Dict[str, float] = {}
    for doc_id in doc_ids:
        for term, weight in _tf_idf_vector(collection, doc_id).items():
            total[term] = total.get(term, 0.0) + weight
    return {term: weight / len(doc_ids) for term, weight in total.items()}


def rocchio_weights(
    collection: IRSCollection,
    irs_query: str,
    relevant: Iterable[int],
    non_relevant: Iterable[int] = (),
    parameters: Optional[FeedbackParameters] = None,
) -> Dict[str, float]:
    """Rocchio term weights over the collection's analyzed term space."""
    parameters = parameters or FeedbackParameters()
    weights: Dict[str, float] = {}

    query_terms = parse_irs_query(irs_query).terms()
    for raw in query_terms:
        term = collection.analyzer.term(raw)
        if term is not None:
            weights[term] = weights.get(term, 0.0) + parameters.alpha

    for term, weight in _centroid(collection, relevant).items():
        weights[term] = weights.get(term, 0.0) + parameters.beta * weight
    for term, weight in _centroid(collection, non_relevant).items():
        weights[term] = weights.get(term, 0.0) - parameters.gamma * weight
    return weights


def expand_query(
    collection: IRSCollection,
    irs_query: str,
    relevant: Iterable[int],
    non_relevant: Iterable[int] = (),
    parameters: Optional[FeedbackParameters] = None,
) -> str:
    """Build the expanded ``#wsum(...)`` query text.

    Original query terms are always retained; the remaining budget of
    ``expansion_terms`` is filled with the best-weighted new terms.
    """
    parameters = parameters or FeedbackParameters()
    weights = rocchio_weights(collection, irs_query, relevant, non_relevant, parameters)
    positive = {t: w for t, w in weights.items() if w > 0}
    if not positive:
        return irs_query

    original_terms = []
    for raw in parse_irs_query(irs_query).terms():
        term = collection.analyzer.term(raw)
        if term is not None and term in positive and term not in original_terms:
            original_terms.append(term)

    ranked_new = sorted(
        (t for t in positive if t not in original_terms),
        key=lambda t: (-positive[t], t),
    )
    budget = max(0, parameters.expansion_terms - len(original_terms))
    chosen = original_terms + ranked_new[:budget]
    if not chosen:
        return irs_query

    parts = []
    for term in chosen:
        parts.append(f"{positive[term]:.4f} {term}")
    return f"#wsum({' '.join(parts)})"
