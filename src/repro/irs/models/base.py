"""Common interface of retrieval models, plus query precompilation.

The compiled-query stage is the first leg of the scoring fast path: every
raw query term is pushed through the collection's analyzer exactly once
(memoized across repeated terms), and the operator structure is resolved
into plain compiled nodes.  Scoring then works with analyzed terms and
dict lookups — no per-(term, candidate-document) re-analysis, no repeated
query-tree walks over raw nodes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.irs.collection import IRSCollection
from repro.irs.queries import OperatorNode, ProximityNode, QueryNode, TermNode


class CompiledTerm:
    """A query term analyzed once.  ``term`` is None when stopped out."""

    __slots__ = ("raw", "term")

    def __init__(self, raw: str, term: Optional[str]) -> None:
        self.raw = raw
        self.term = term


class CompiledProximity:
    """A proximity window with its terms analyzed once.

    ``terms`` holds the analyzed terms; ``None`` entries mark stopped-out
    operands, which make the window unmatchable (INQUERY behaved the same).
    ``node`` keeps the original query node for the proximity caches.
    """

    __slots__ = ("node", "ordered", "window", "terms")

    def __init__(self, node: ProximityNode, terms: Tuple[Optional[str], ...]) -> None:
        self.node = node
        self.ordered = node.ordered
        self.window = node.window
        self.terms = terms

    @property
    def matchable(self) -> bool:
        return all(term is not None for term in self.terms)


class CompiledOperator:
    """An operator node over compiled children."""

    __slots__ = ("op", "children", "weights")

    def __init__(self, op: str, children: Tuple[object, ...], weights: Tuple[float, ...]) -> None:
        self.op = op
        self.children = children
        self.weights = weights


CompiledNode = object  # CompiledTerm | CompiledProximity | CompiledOperator


def compile_query(collection: IRSCollection, node: QueryNode) -> CompiledNode:
    """Resolve ``node`` into a compiled tree against ``collection``.

    The analyser memoises its terms, so a term repeated in the query is
    stemmed once.
    """
    analyze = collection.analyzer.term

    def walk(current: QueryNode) -> CompiledNode:
        if isinstance(current, TermNode):
            return CompiledTerm(current.term, analyze(current.term))
        if isinstance(current, ProximityNode):
            return CompiledProximity(
                current, tuple(analyze(t.term) for t in current.term_nodes)
            )
        if isinstance(current, OperatorNode):
            return CompiledOperator(
                current.op,
                tuple(walk(child) for child in current.children),
                current.weights,
            )
        raise ValueError(f"cannot compile query node {current!r}")

    return walk(node)


class RetrievalModel:
    """Scores documents of one collection against a parsed query tree."""

    #: Operator used to combine bare multi-term queries for this model.
    default_operator = "sum"

    name = "abstract"

    def score(self, collection: IRSCollection, query: QueryNode) -> Dict[int, float]:
        """Return ``{doc_id: IRS value}`` for all documents with value > 0.

        Values lie in [0, 1]; higher means more likely relevant ("an IRS
        value which indicates the supposed relevance of each IRS document",
        Section 1.1).
        """
        raise NotImplementedError

    def analyzed_terms(self, collection: IRSCollection, raw_terms: List[str]) -> List[str]:
        """Run query terms through the collection's analyzer, dropping stopped ones."""
        analyzed = []
        for raw in raw_terms:
            term = collection.analyzer.term(raw)
            if term is not None:
                analyzed.append(term)
        return analyzed
