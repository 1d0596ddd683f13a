"""Hierarchical scoring: one leaf-level index answers every element level.

Section 4.3.1, alternative (2): avoid redundant multi-level indexing by
"using compression techniques [SAZ94]".  [SAZ94]'s observation is that the
postings of an inner element are derivable from its leaves' postings plus
the document tree, so only one level needs physical storage.  This module
realizes that idea natively instead of via compression: given a collection
whose IRS documents are the *leaf* elements, :class:`HierarchicalScorer`
computes the exact INQUERY belief of any element at any level by
aggregating term frequencies and lengths over the element's leaf documents,
with per-level document-frequency statistics computed on demand and cached.

The resulting values are exactly what a (redundant) collection indexing
that level directly would produce — verified by the HIER benchmark — at
the storage cost of the leaf level alone.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.irs.collection import IRSCollection
from repro.irs.models import operators as ops
from repro.irs.models.probabilistic import DEFAULT_BELIEF
from repro.irs.queries import OperatorNode, QueryNode, TermNode, parse_irs_query
from repro.oodb.database import Database
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID


class HierarchicalScorer:
    """Scores arbitrary elements against a leaf-level IRS collection.

    Parameters
    ----------
    db:
        The database holding the element tree.
    collection:
        An IRS collection whose documents are leaf elements carrying
        ``oid`` metadata (e.g. built by the ``leaf_level`` granularity
        policy).
    """

    def __init__(self, db: Database, collection: IRSCollection) -> None:
        self._db = db
        self._collection = collection
        self._leaf_docs: Optional[Dict[OID, List[int]]] = None
        self._level_stats: Dict[Tuple[str, str], Tuple[int, int]] = {}
        self._subtree_cache: Dict[OID, List[int]] = {}

    # -- leaf bookkeeping ---------------------------------------------------

    def _leaf_documents(self) -> Dict[OID, List[int]]:
        """OID -> IRS doc ids of the collection's leaf documents."""
        if self._leaf_docs is None:
            mapping: Dict[OID, List[int]] = {}
            for document in self._collection.documents():
                oid_str = document.metadata.get("oid")
                if oid_str is None:
                    continue
                mapping.setdefault(OID.parse(oid_str), []).append(document.doc_id)
            self._leaf_docs = mapping
        return self._leaf_docs

    def invalidate(self) -> None:
        """Drop caches after the collection or the tree changed."""
        self._leaf_docs = None
        self._level_stats.clear()
        self._subtree_cache.clear()

    def subtree_doc_ids(self, obj: DBObject) -> List[int]:
        """IRS doc ids of all leaf documents under ``obj`` (self included)."""
        cached = self._subtree_cache.get(obj.oid)
        if cached is not None:
            return cached
        leaf_docs = self._leaf_documents()
        doc_ids = list(leaf_docs.get(obj.oid, []))
        for descendant in obj.send("getDescendants"):
            doc_ids.extend(leaf_docs.get(descendant.oid, []))
        self._subtree_cache[obj.oid] = doc_ids
        return doc_ids

    # -- aggregated statistics ------------------------------------------------

    def subtree_tf(self, term: str, obj: DBObject) -> int:
        """Total term frequency of (analyzed) ``term`` in the subtree."""
        analyzed = self._collection.analyzer.term(term)
        if analyzed is None:
            return 0
        index = self._collection.index
        return sum(
            index.term_frequency(analyzed, doc_id)
            for doc_id in self.subtree_doc_ids(obj)
        )

    def subtree_length(self, obj: DBObject) -> int:
        """Total indexed token count of the subtree."""
        index = self._collection.index
        return sum(
            index.document_length(doc_id) for doc_id in self.subtree_doc_ids(obj)
        )

    def _stats_for_level(self, class_name: str, term: str) -> Tuple[int, int]:
        """(N, df) at the level of ``class_name`` for ``term``."""
        analyzed = self._collection.analyzer.term(term) or term
        key = (class_name, analyzed)
        cached = self._level_stats.get(key)
        if cached is not None:
            return cached
        instances = self._db.instances_of(class_name)
        n_docs = len(instances)
        df = sum(1 for obj in instances if self.subtree_tf(term, obj) > 0)
        self._level_stats[key] = (n_docs, df)
        return n_docs, df

    def average_length(self, class_name: str) -> float:
        """Mean subtree length over the level's instances."""
        instances = self._db.instances_of(class_name)
        if not instances:
            return 0.0
        return sum(self.subtree_length(obj) for obj in instances) / len(instances)

    # -- scoring ---------------------------------------------------------------

    def term_belief(self, term: str, obj: DBObject, class_name: Optional[str] = None) -> float:
        """Exact INQUERY belief of ``obj`` for ``term`` at its level.

        Identical formula to
        :class:`repro.irs.models.probabilistic.InferenceNetworkModel`, with
        tf/dl aggregated over the subtree and N/df computed at the level of
        ``class_name`` (default: the object's own class).
        """
        level = class_name or obj.class_name
        tf = self.subtree_tf(term, obj)
        if tf == 0:
            return DEFAULT_BELIEF
        n_docs, df = self._stats_for_level(level, term)
        if df == 0 or n_docs == 0:
            return DEFAULT_BELIEF
        dl = self.subtree_length(obj)
        avg_dl = self.average_length(level) or 1.0
        tf_part = tf / (tf + 0.5 + 1.5 * dl / avg_dl)
        idf_part = math.log((n_docs + 0.5) / df) / math.log(n_docs + 1.0)
        idf_part = max(0.0, min(1.0, idf_part))
        return DEFAULT_BELIEF + (1.0 - DEFAULT_BELIEF) * tf_part * idf_part

    def belief(self, query: QueryNode, obj: DBObject, class_name: Optional[str] = None) -> float:
        """Belief of ``obj`` for a parsed query tree."""
        if isinstance(query, TermNode):
            return self.term_belief(query.term, obj, class_name)
        if isinstance(query, OperatorNode):
            children = [self.belief(c, obj, class_name) for c in query.children]
            if query.op == "and":
                return ops.op_and(children)
            if query.op == "or":
                return ops.op_or(children)
            if query.op == "not":
                return ops.op_not(children[0])
            if query.op == "sum":
                return ops.op_sum(children)
            if query.op == "wsum":
                return ops.op_wsum(query.weights, children)
            if query.op == "max":
                return ops.op_max(children)
        raise ValueError(f"cannot score query node {query!r}")  # pragma: no cover

    def score_level(self, irs_query: str, class_name: str) -> Dict[OID, float]:
        """Score every instance of ``class_name`` against ``irs_query``.

        Returns the same shape as an IRS query against a collection that
        indexed this level directly: ``{OID: value}`` for values above the
        query's no-evidence baseline.
        """
        tree = parse_irs_query(irs_query)
        baseline = self._baseline(tree)
        result: Dict[OID, float] = {}
        for obj in self._db.instances_of(class_name):
            value = self.belief(tree, obj, class_name)
            if value > baseline:
                result[obj.oid] = value
        return result

    def _baseline(self, query: QueryNode) -> float:
        if isinstance(query, TermNode):
            return DEFAULT_BELIEF
        if isinstance(query, OperatorNode):
            children = [self._baseline(c) for c in query.children]
            if query.op == "and":
                return ops.op_and(children)
            if query.op == "or":
                return ops.op_or(children)
            if query.op == "not":
                return ops.op_not(children[0])
            if query.op == "sum":
                return ops.op_sum(children)
            if query.op == "wsum":
                return ops.op_wsum(query.weights, children)
            if query.op == "max":
                return ops.op_max(children)
        raise ValueError(f"cannot score query node {query!r}")  # pragma: no cover
