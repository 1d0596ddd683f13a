"""Vector-space retrieval model (TF-IDF, cosine similarity).

Included because the paper argues the coupling must accommodate "vector
retrieval systems" unchanged (Section 3).  Operator structure is flattened
to a bag of positive terms — classic vector-space queries are unstructured —
except ``#not`` whose terms *subtract* weight, and ``#wsum`` whose weights
multiply the corresponding query-term weights.

Scoring is term-at-a-time over each term's decoded ``(doc_ids, tfs)``
columns (``index.term_columns``; no position is decoded, no posting object
built); idf values and the per-document TF-IDF norms come from the
collection's epoch-validated :class:`~repro.irs.statistics.StatisticsCache`,
the norms as one bulk column per query.  :meth:`VectorSpaceModel.term_impacts`
is the model's half of the top-k scorer's impact cache.  The pre-cache
implementation survives in :mod:`repro.irs.models.reference` for
equivalence tests and benchmarks.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.irs.collection import IRSCollection
from repro.irs.models.base import RetrievalModel
from repro.irs.queries import OperatorNode, ProximityNode, QueryNode, TermNode


class VectorSpaceModel(RetrievalModel):
    """Cosine similarity between tf-idf document and query vectors."""

    name = "vector"
    default_operator = "sum"

    def score(self, collection: IRSCollection, query: QueryNode) -> Dict[int, float]:
        query_vector = self._query_vector(collection, query)
        if not query_vector:
            return {}
        index = collection.index
        stats = collection.stats
        log = math.log
        scores: Dict[int, float] = {}
        get = scores.get
        for term, query_weight in query_vector.items():
            idf = stats.idf(term)  # 0.0 exactly when df == 0
            if idf == 0.0:
                continue
            for ids, tfs in index.term_columns(term):
                for doc_id, tf in zip(ids, tfs):
                    scores[doc_id] = get(doc_id, 0.0) + query_weight * (1.0 + log(tf)) * idf
        if not scores:
            return {}
        # Cosine normalization by the cached document vector norms.
        query_norm = math.sqrt(sum(w * w for w in query_vector.values()))
        return {
            doc_id: min(1.0, dot / (doc_norm * query_norm))
            for (doc_id, dot), doc_norm in zip(
                scores.items(), stats.document_norms(list(scores))
            )
            if doc_norm > 0 and dot > 0
        }

    def term_impacts(self, collection: IRSCollection, term: str, tally: List[int]) -> Dict[int, tuple]:
        """The per-source impact columns of ``term`` (see ``topk.term_impacts``).

        An impact is the cosine contribution per unit of normalized query
        weight, ``(1 + log tf) * idf / doc_norm`` (0.0 for a zero norm).
        """
        # Local import: topk compiles queries through this package.
        from repro.irs.topk import term_impacts

        stats = collection.stats
        idf = stats.idf(term)
        log = math.log

        def block_impacts(_source, ids, tfs):
            return [
                (1.0 + log(tf)) * idf / norm if norm > 0.0 else 0.0
                for tf, norm in zip(tfs, stats.document_norms(ids))
            ]

        return term_impacts(collection, ("vector", term), term, block_impacts, tally)

    def _query_vector(self, collection: IRSCollection, node: QueryNode, sign: float = 1.0, weight: float = 1.0) -> Dict[str, float]:
        vector: Dict[str, float] = {}
        memo: Dict[str, object] = {}
        self._accumulate(collection, node, sign, weight, vector, memo)
        # Negative weights (from #not) are kept: they subtract during the
        # dot product; documents whose score goes non-positive are dropped.
        return {t: w for t, w in vector.items() if w != 0}

    def _accumulate(
        self,
        collection: IRSCollection,
        node: QueryNode,
        sign: float,
        weight: float,
        vector: Dict[str, float],
        memo: Dict[str, object],
    ) -> None:
        if isinstance(node, TermNode):
            if node.term in memo:
                term = memo[node.term]
            else:
                term = collection.analyzer.term(node.term)
                memo[node.term] = term
            if term is not None:
                vector[term] = vector.get(term, 0.0) + sign * weight
            return
        if isinstance(node, ProximityNode):
            # The vector paradigm has no positional machinery; proximity
            # degenerates to the bag of its terms — the kind of paradigm
            # difference the loose coupling deliberately tolerates.
            for term_node in node.term_nodes:
                self._accumulate(collection, term_node, sign, weight, vector, memo)
            return
        if isinstance(node, OperatorNode):
            if node.op == "not":
                self._accumulate(collection, node.children[0], -sign, weight, vector, memo)
                return
            if node.op == "wsum":
                for child_weight, child in zip(node.weights, node.children):
                    self._accumulate(collection, child, sign, weight * child_weight, vector, memo)
                return
            for child in node.children:
                self._accumulate(collection, child, sign, weight, vector, memo)

    def _document_norm(self, collection: IRSCollection, doc_id: int) -> float:
        """One document's TF-IDF norm (delegates to the statistics cache)."""
        return collection.stats.document_norm(doc_id)
