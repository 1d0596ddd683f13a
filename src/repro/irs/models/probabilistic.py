"""INQUERY-style probabilistic inference model.

The IRS the paper couples is INQUERY, "based on Bayesean inference networks"
[CrT91, CCH92].  This model reproduces the published INQUERY belief
function: per (term, document) the belief is

    bel(t, d) = db + (1 - db) * tf_part * idf_part

with default belief ``db = 0.4``,

    tf_part  = tf / (tf + 0.5 + 1.5 * dl / avg_dl)
    idf_part = log(N + 0.5) - log(df) , normalized by log(N + 1)

— i.e. the Robertson tf component with document-length normalization
(explicitly noted by the paper: "INQUERY, for example, takes into account
the IRS documents' length in order to compute IRS values", Section 4.5.2)
and a scaled idf.  Beliefs combine through the operator algebra of
:mod:`repro.irs.models.operators`.

Scoring is **set-at-a-time**: the query is compiled (each raw term
analyzed once), then each distinct term yields one belief map over the
documents that contain it — ``db + impact``, read off the per-term impact
columns this model shares with the top-k scorer (:meth:`term_impacts`; one
comprehension per block of decoded ``(doc_ids, tfs)`` columns, cached per
index version).  Flat ``#sum``/``#wsum`` queries — the common shape —
accumulate those maps directly into a scores dict; structured queries fold
them operator by operator as ``(values, default)`` belief sets
(:mod:`repro.irs.models.operators`), so no code runs per candidate
document.  The naive document-at-a-time path survives in
:mod:`repro.irs.models.reference` for equivalence tests and benchmarks.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.irs.collection import IRSCollection
from repro.irs.models import operators as ops
from repro.irs.models.base import (
    CompiledOperator,
    CompiledProximity,
    CompiledTerm,
    RetrievalModel,
    compile_query,
)
from repro.irs.queries import OperatorNode, ProximityNode, QueryNode, TermNode

#: INQUERY's default belief for unobserved evidence.
DEFAULT_BELIEF = 0.4


class InferenceNetworkModel(RetrievalModel):
    """Belief scoring with #and/#or/#not/#sum/#wsum/#max combination."""

    name = "inquery"
    default_operator = "sum"

    def __init__(self, default_belief: float = DEFAULT_BELIEF) -> None:
        if not 0.0 <= default_belief < 1.0:
            raise ValueError("default belief must lie in [0, 1)")
        self._db = default_belief

    # -- scoring -----------------------------------------------------------

    def score(self, collection: IRSCollection, query: QueryNode) -> Dict[int, float]:
        compiled = compile_query(collection, query)
        term_maps = self.term_belief_maps(collection, compiled)
        flat = self._flat_linear(compiled)
        if flat is not None:
            return self._score_term_at_a_time(collection, flat, term_maps)
        return self._score_structured(collection, compiled, term_maps)

    def _flat_linear(self, compiled) -> Optional[List[tuple]]:
        """(weight, leaf) pairs when the query is a flat #sum/#wsum of leaves.

        These linear combinations admit pure term-at-a-time accumulation;
        anything else (nested operators, #and/#or/#not/#max) goes through
        the structured combiner.  A #wsum whose weights do not sum to a
        positive total falls through as well (op_wsum has a special case).
        """
        if isinstance(compiled, (CompiledTerm, CompiledProximity)):
            return [(1.0, compiled)]
        if not isinstance(compiled, CompiledOperator):
            return None
        if compiled.op not in ("sum", "wsum"):
            return None
        if not all(
            isinstance(c, (CompiledTerm, CompiledProximity)) for c in compiled.children
        ):
            return None
        if compiled.op == "sum":
            weights = [1.0] * len(compiled.children)
        else:
            weights = list(compiled.weights)
            if sum(weights) <= 0:
                return None
        return list(zip(weights, compiled.children))

    def _score_term_at_a_time(
        self,
        collection: IRSCollection,
        weighted_leaves: List[tuple],
        term_maps: Dict[str, Dict[int, float]],
    ) -> Dict[int, float]:
        """Accumulate leaf belief maps directly into a scores dict.

        For a linear combination ``sum_i w_i * bel_i / W`` every absent leaf
        contributes the default belief, so the score decomposes as
        ``db + sum_i w_i * (bel_i - db) / W`` — each term's postings are
        walked once, adding its weighted excess belief to the accumulator.
        Documents retrieved are exactly those with positive accumulated
        excess (i.e. strictly more evidence than the no-evidence baseline).
        """
        db = self._db
        total_weight = sum(w for w, _leaf in weighted_leaves)
        acc: Dict[int, float] = {}
        for weight, leaf in weighted_leaves:
            for doc_id, belief in self._leaf_map(collection, leaf, term_maps).items():
                acc[doc_id] = acc.get(doc_id, 0.0) + weight * (belief - db)
        return {
            doc_id: db + excess / total_weight
            for doc_id, excess in acc.items()
            if excess > 0.0
        }

    def _score_structured(
        self,
        collection: IRSCollection,
        compiled,
        term_maps: Dict[str, Dict[int, float]],
    ) -> Dict[int, float]:
        """Fold the leaf belief maps through the operator tree, set-at-a-time.

        The root's default is the query's belief for a document with no
        matching evidence (:meth:`baseline`, computed by the same folds);
        documents strictly above it are retrieved.
        """
        values, default = self._belief_set(collection, compiled, term_maps)
        return {doc_id: belief for doc_id, belief in values.items() if belief > default}

    def _belief_set(
        self, collection: IRSCollection, node, term_maps: Dict[str, Dict[int, float]]
    ) -> ops.BeliefSet:
        """``(values, default)`` of one compiled node over all documents."""
        if not isinstance(node, CompiledOperator):
            return self._leaf_map(collection, node, term_maps), self._db
        parts = [self._belief_set(collection, c, term_maps) for c in node.children]
        op = node.op
        if op == "and":
            return ops.set_and(parts)
        if op == "or":
            return ops.set_or(parts)
        if op == "not":
            return ops.set_not(parts[0])
        if op == "sum":
            return ops.set_sum(parts)
        if op == "wsum":
            return ops.set_wsum(node.weights, parts)
        if op == "max":
            return ops.set_max(parts)
        raise ValueError(f"cannot score operator {op!r}")  # pragma: no cover

    def _leaf_map(
        self,
        collection: IRSCollection,
        leaf,
        term_maps: Dict[str, Dict[int, float]],
    ) -> Dict[int, float]:
        """``{doc_id: belief}`` of one leaf over the documents that match it.

        Term leaves read the maps :meth:`term_belief_maps` built; proximity
        leaves reuse the epoch-memoized match maps of
        :mod:`repro.irs.proximity`.
        """
        if isinstance(leaf, CompiledTerm):
            return {} if leaf.term is None else term_maps[leaf.term]
        return self._proximity_belief_map(collection, leaf)

    def term_belief_maps(self, collection: IRSCollection, compiled) -> Dict[str, Dict[int, float]]:
        """``{term: {doc_id: belief}}`` of each distinct term leaf of
        ``compiled``, leaf order, read off its impact entry (a belief is
        ``db + impact``); the impact memo is counted once for the query."""
        from repro.irs.topk import impact_maps

        def terms(node):
            if isinstance(node, CompiledOperator):
                for child in node.children:
                    yield from terms(child)
            elif isinstance(node, CompiledTerm) and node.term is not None:
                yield node.term

        db = self._db
        term_maps: Dict[str, Dict[int, float]] = {}
        impacts_of = impact_maps(collection, self, dict.fromkeys(terms(compiled)))
        for term, entries in impacts_of.items():
            beliefs = term_maps[term] = {}
            for entry in entries.values():
                for ids, impacts in zip(entry.block_ids, entry.block_us):
                    beliefs.update(zip(ids, [db + impact for impact in impacts]))
        return term_maps

    def term_impacts(self, collection: IRSCollection, term: str, tally: List[int]) -> Dict[int, tuple]:
        """The per-source impact columns of ``term`` (see ``topk.term_impacts``).

        An impact is the excess belief ``(1 - db) * tf_part * idf_part`` of
        one posting, so ``db + impact`` *is* the belief, float for float.
        One entry per index version serves both the MaxScore scan and
        exhaustive scoring.
        """
        # Local import: topk compiles queries through this package.
        from repro.irs.topk import term_impacts

        stats = collection.stats
        idf_part = stats.inquery_idf(term)
        avg_dl = stats.average_document_length or 1.0
        one_minus_db = 1.0 - self._db

        def block_impacts(source, ids, tfs):
            lengths = source.doc_lengths
            return [
                one_minus_db * (tf / (tf + 0.5 + 1.5 * lengths[doc_id] / avg_dl)) * idf_part
                for doc_id, tf in zip(ids, tfs)
            ]

        return term_impacts(
            collection, ("inquery", self._db, term), term, block_impacts, tally
        )

    def _proximity_belief_map(
        self,
        collection: IRSCollection,
        leaf: CompiledProximity,
    ) -> Dict[int, float]:
        from repro.irs.proximity import proximity_tf_map

        beliefs: Dict[int, float] = {}
        if leaf.matchable:
            tf_map = proximity_tf_map(collection, leaf.node)
            df = len(tf_map)
            index = collection.index
            n_docs = index.document_count
            if df > 0 and n_docs > 0:
                avg_dl = collection.stats.average_document_length or 1.0
                db = self._db
                one_minus_db = 1.0 - db
                idf_part = math.log((n_docs + 0.5) / df) / math.log(n_docs + 1.0)
                idf_part = max(0.0, min(1.0, idf_part))
                lengths = index.doc_lengths
                beliefs = {
                    doc_id: db
                    + one_minus_db
                    * (tf / (tf + 0.5 + 1.5 * lengths[doc_id] / avg_dl))
                    * idf_part
                    for doc_id, tf in tf_map.items()
                }
        return beliefs

    def baseline(self, query: QueryNode) -> float:
        """The query's belief for a document with *no* matching evidence.

        Documents scoring above this are retrieved; the baseline depends on
        the operator structure (e.g. ``#and`` of two terms bottoms out at
        ``db * db``, not ``db``).
        """
        if isinstance(query, (TermNode, ProximityNode)):
            return self._db
        if isinstance(query, OperatorNode):
            children = [self.baseline(c) for c in query.children]
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
