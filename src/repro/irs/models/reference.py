"""Naive document-at-a-time reference models.

These are the pre-optimization scoring paths, kept verbatim so that

* the equivalence tests can assert the fast term-at-a-time paths produce
  per-document values within 1e-9 of them on arbitrary corpora, and
* ``benchmarks/bench_scoring.py`` can measure the before/after throughput
  of the scoring engine against a live baseline instead of a folklore
  number.

They deliberately bypass the statistics caches: global statistics are
re-derived per use (average document length is re-summed, per-document
norms re-scan the document's whole vocabulary slice) and query terms are
re-analyzed per (term, candidate-document) pair — exactly the costs the
fast path eliminates.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set

from repro.irs.collection import IRSCollection
from repro.irs.inverted_index import InvertedIndex
from repro.irs.models import operators as ops
from repro.irs.models.probabilistic import InferenceNetworkModel
from repro.irs.models.vector import VectorSpaceModel
from repro.irs.queries import OperatorNode, ProximityNode, QueryNode, TermNode


def naive_average_document_length(index: InvertedIndex) -> float:
    """Mean document length re-summed from scratch (the pre-PR cost).

    Reads the index's length table on purpose: the pre-optimization
    ``average_document_length`` summed that very dict on every call, and the
    reference path must replicate both the cost and the exact float.
    """
    lengths = index.doc_lengths
    if not lengths:
        return 0.0
    return sum(lengths.values()) / len(lengths)


class NaiveVectorSpaceModel(VectorSpaceModel):
    """Doc-at-a-time cosine scoring with per-document vocabulary scans."""

    name = "vector-naive"

    def score(self, collection: IRSCollection, query: QueryNode) -> Dict[int, float]:
        query_vector = self._query_vector(collection, query)
        if not query_vector:
            return {}
        index = collection.index
        n_docs = index.document_count
        scores: Dict[int, float] = {}
        for term, query_weight in query_vector.items():
            df = index.document_frequency(term)
            if df == 0:
                continue
            idf = math.log(1.0 + n_docs / df)
            for posting in index.postings(term):
                tf = 1.0 + math.log(posting.tf)
                scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + query_weight * tf * idf
        if not scores:
            return {}
        result: Dict[int, float] = {}
        query_norm = math.sqrt(sum(w * w for w in query_vector.values()))
        for doc_id, dot in scores.items():
            doc_norm = self._document_norm(collection, doc_id)
            if doc_norm > 0 and dot > 0:
                value = dot / (doc_norm * query_norm)
                result[doc_id] = min(1.0, value)
        return result

    def _document_norm(self, collection: IRSCollection, doc_id: int) -> float:
        index = collection.index
        n_docs = index.document_count
        total = 0.0
        for term, tf in index.document_vector(doc_id).items():
            df = index.document_frequency(term)
            idf = math.log(1.0 + n_docs / df)
            w = (1.0 + math.log(tf)) * idf
            total += w * w
        return math.sqrt(total)


class NaiveInferenceNetworkModel(InferenceNetworkModel):
    """Doc-at-a-time belief scoring with per-(term, doc) re-analysis."""

    name = "inquery-naive"

    def score(self, collection: IRSCollection, query: QueryNode) -> Dict[int, float]:
        candidates = self._candidates(collection, query)
        baseline = self.baseline(query)
        result: Dict[int, float] = {}
        for doc_id in candidates:
            belief = self._naive_belief(collection, query, doc_id)
            if belief > baseline:
                result[doc_id] = belief
        return result

    def _candidates(self, collection: IRSCollection, query: QueryNode) -> List[int]:
        terms = self.analyzed_terms(collection, query.terms())
        docs: Set[int] = set()
        for term in terms:
            for posting in collection.index.postings(term):
                docs.add(posting.doc_id)
        return sorted(docs)

    def _naive_term_belief(self, collection: IRSCollection, raw_term: str, doc_id: int) -> float:
        term = collection.analyzer.term(raw_term)
        if term is None:
            return self._db
        index = collection.index
        tf = index.term_frequency(term, doc_id)
        if tf == 0:
            return self._db
        n_docs = index.document_count
        df = index.document_frequency(term)
        dl = index.document_length(doc_id)
        avg_dl = naive_average_document_length(index) or 1.0
        tf_part = tf / (tf + 0.5 + 1.5 * dl / avg_dl)
        idf_part = math.log((n_docs + 0.5) / df) / math.log(n_docs + 1.0)
        idf_part = max(0.0, min(1.0, idf_part))
        return self._db + (1.0 - self._db) * tf_part * idf_part

    def _naive_proximity_belief(
        self, collection: IRSCollection, node: ProximityNode, doc_id: int
    ) -> float:
        from repro.irs.proximity import proximity_document_frequency, proximity_tf

        tf = proximity_tf(collection, doc_id, node.terms(), node.window, node.ordered)
        if tf == 0:
            return self._db
        n_docs = collection.index.document_count
        df = proximity_document_frequency(
            collection, node.terms(), node.window, node.ordered
        )
        if df == 0 or n_docs == 0:
            return self._db
        dl = collection.index.document_length(doc_id)
        avg_dl = naive_average_document_length(collection.index) or 1.0
        tf_part = tf / (tf + 0.5 + 1.5 * dl / avg_dl)
        idf_part = math.log((n_docs + 0.5) / df) / math.log(n_docs + 1.0)
        idf_part = max(0.0, min(1.0, idf_part))
        return self._db + (1.0 - self._db) * tf_part * idf_part

    def _naive_belief(self, collection: IRSCollection, node: QueryNode, doc_id: int) -> float:
        if isinstance(node, TermNode):
            return self._naive_term_belief(collection, node.term, doc_id)
        if isinstance(node, ProximityNode):
            return self._naive_proximity_belief(collection, node, doc_id)
        if isinstance(node, OperatorNode):
            children = [self._naive_belief(collection, c, doc_id) for c in node.children]
            if node.op == "and":
                return ops.op_and(children)
            if node.op == "or":
                return ops.op_or(children)
            if node.op == "not":
                return ops.op_not(children[0])
            if node.op == "sum":
                return ops.op_sum(children)
            if node.op == "wsum":
                return ops.op_wsum(node.weights, children)
            if node.op == "max":
                return ops.op_max(children)
        raise ValueError(f"cannot score query node {node!r}")  # pragma: no cover
