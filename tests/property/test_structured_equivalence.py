"""Property-based proof that set-at-a-time scoring *is* the reference model.

``InferenceNetworkModel`` folds whole belief sets through the operator
tree (``repro.irs.models.operators.set_*``); the naive reference model of
``repro.irs.models.reference`` evaluates the same tree once per candidate
document with the scalar ``op_*`` functions.  DESIGN.md claims the two
agree bit for bit.  Hypothesis hunts for a corpus and an operator tree
that break the claim:

* trees of depth <= 3 over ``#and/#or/#not/#sum/#wsum/#max`` with repeated,
  stopped (``the``) and unknown (``zzz``) terms, ``#wsum`` weights whose sum
  is positive, zero or negative, and ``#od/#uw`` proximity leaves;
* the same documents under the same ids in every physical layout:
  monolithic, segmented with tombstones (read before a merge, between a
  merge's build and its commit, and after it), and an older build's 1, 2
  or 4 shards opened as one manager;
* ``score()`` equals the reference in retrieved set and in every float
  (``==``, no tolerance), and ``top_k=k`` equals the ranked prefix for
  k in {1, 10, 100};
* flat ``#and/#or/#max`` roots — the shapes top-k prunes with a lifted
  bound — over skewed 300-document corpora big enough to skip, where an
  unsafe lift drops documents.  Half of each corpus mirrors the other
  with paired words swapped, so equal scores reach the heap from
  different lists; long documents and a default belief of ``1 - 1e-12``
  shrink impacts until the k-th value sits within a rounding step of the
  baseline, where a threshold without its absolute margin drops a tie.

One documented exception: a *flat* ``#sum``/``#wsum`` of leaves with a
positive weight sum takes the term-at-a-time accumulator
(``db + sum w_i (bel_i - db) / W``), which since PR 1 is algebraically equal
to the reference's weighted mean but rounds differently; those trees are
held to the retrieved set and 1e-9, as the older equivalence suites do.

Profiles: the default ``structured-fixed`` profile is derandomized; set
``HYPOTHESIS_PROFILE=structured-random`` for a randomized pass.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.models import InferenceNetworkModel, VectorSpaceModel
from repro.irs.models import operators as ops
from repro.irs.models.base import compile_query
from repro.irs.models.probabilistic import DEFAULT_BELIEF
from repro.irs.models.reference import NaiveInferenceNetworkModel
from repro.irs.queries import OperatorNode, ProximityNode, TermNode
from repro.irs.segments import SealedSegment, SegmentConfig
from repro.irs.topk import topk_scores, truncate_top_k
from tests.legacy import ShardedHistory

settings.register_profile(
    "structured-fixed",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "structured-random",
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
_SETTINGS = settings.get_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "structured-fixed")
)

WORDS = ["www", "nii", "telnet", "database", "information", "retrieval"]
#: Query terms: the indexed words, a stopword and a word no document has.
QUERY_TERMS = WORDS + ["the", "zzz"]
TOP_KS = (1, 10, 100)

_documents = st.lists(
    st.lists(st.sampled_from(WORDS + ["the", "w1", "w2"]), min_size=1, max_size=10),
    min_size=3,
    max_size=24,
)
_removals = st.sets(st.integers(0, 23), max_size=6)

_term = st.builds(TermNode, st.sampled_from(QUERY_TERMS))
_proximity = st.builds(
    ProximityNode,
    st.booleans(),
    st.integers(1, 6),
    st.lists(_term, min_size=2, max_size=3).map(tuple),
)
_leaf = st.one_of(_term, _term, _proximity)
_weight = st.sampled_from([3.0, 2.0, 1.0, 0.5, 0.0, -1.0, -2.0])


def _wsum(children):
    def free(nodes):
        return st.lists(
            _weight, min_size=len(nodes), max_size=len(nodes)
        ).map(lambda weights: OperatorNode("wsum", tuple(nodes), tuple(weights)))

    def zero_sum(nodes):
        # The last weight cancels the others: op_wsum's constant-0.0 case.
        return st.lists(
            _weight, min_size=len(nodes) - 1, max_size=len(nodes) - 1
        ).map(
            lambda weights: OperatorNode(
                "wsum", tuple(nodes), tuple(weights) + (-sum(weights),)
            )
        )

    lists = st.lists(children, min_size=1, max_size=3)
    return st.one_of(lists.flatmap(free), lists.flatmap(zero_sum))


def _trees(depth):
    if depth == 0:
        return _leaf
    children = _trees(depth - 1)
    several = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        children,
        *[
            several.map(lambda nodes, op=op: OperatorNode(op, nodes))
            for op in ("and", "or", "sum", "max")
        ],
        children.map(lambda node: OperatorNode("not", (node,))),
        _wsum(children),
    )


_tree = _trees(3)

#: Swaps each word with its neighbour in the Zipf order.
MIRROR = {**dict(zip(WORDS[::2], WORDS[1::2])), **dict(zip(WORDS[1::2], WORDS[::2]))}


def _flat(op, terms, mirrored):
    if mirrored:
        terms = terms + [MIRROR.get(term, term) for term in terms]
    return OperatorNode(op, tuple(map(TermNode, terms)))


#: A flat root over plain terms, half the time with their mirror images.
#: Every skewed document holds ``ubiq``, whose idf part is nearly 0.
_flat_root = st.builds(
    _flat,
    st.sampled_from(["and", "or", "max"]),
    st.lists(st.sampled_from(QUERY_TERMS + ["ubiq"]), min_size=1, max_size=3),
    st.booleans(),
)


def skewed_corpus(seed, long_documents):
    """150 short Zipf-skewed documents (``long_documents`` of them long),
    then their 150 mirror images."""
    rng = random.Random(seed)
    weights = [1.0 / rank for rank in range(1, len(WORDS) + 1)]
    documents = [
        rng.choices(WORDS, weights, k=rng.randint(1, 8)) + ["ubiq"] for _ in range(150)
    ]
    for position in rng.sample(range(150), long_documents):
        documents[position] += rng.choices(WORDS, weights, k=rng.randint(500, 2000))
    return documents + [[MIRROR.get(word, word) for word in words] for words in documents]


def ranking(values):
    return sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))


def engine_topk(collection, model_name, model, tree, k):
    """Top-k exactly as the engine computes it: pruned, else truncated."""
    outcome = topk_scores(collection, model_name, model, tree, k)
    if outcome.values is not None:
        return outcome.values
    return truncate_top_k(model.score(collection, tree), k)


def fill(collection, documents, removals):
    """Same texts, same ids, same removals in every layout."""
    ids = [collection.add_document(" ".join(words)) for words in documents]
    for position in sorted(removals):
        if position < len(ids) - 1:  # always keep one document
            collection.remove_document(ids[position])
    return collection


class Checker:
    """Holds one example's reference values; checks a layout against them."""

    def __init__(self, documents, removals, tree, default_belief=DEFAULT_BELIEF):
        self.tree = tree
        self.model = InferenceNetworkModel(default_belief)
        self.plain = fill(IRSCollection("plain", Analyzer()), documents, removals)
        self.want = NaiveInferenceNetworkModel(default_belief).score(self.plain, tree)
        self.flat = self.model._flat_linear(compile_query(self.plain, tree)) is not None
        self.check(self.plain, "monolithic")

    def check(self, collection, context):
        got = self.model.score(collection, self.tree)
        if self.flat:
            assert set(got) == set(self.want), context
            assert got == pytest.approx(self.want, abs=1e-9), context
        else:
            assert got == self.want, f"{context}: not the reference's floats"
        ranked = ranking(got)
        for k in TOP_KS:
            top = engine_topk(collection, "inquery", self.model, self.tree, k)
            assert ranking(top) == ranked[:k], f"{context}: top-{k}"


class TestStructuredEquivalence:
    @_SETTINGS
    @given(_documents, _removals, _tree)
    def test_segmented_with_tombstones_and_mid_merge(self, documents, removals, tree):
        checker = Checker(documents, removals, tree)
        collection = fill(
            IRSCollection(
                "seg", Analyzer(), segment_config=SegmentConfig(seal_document_count=4)
            ),
            documents,
            removals,
        )
        checker.check(collection, "segmented")
        manager = collection.segments
        manager.seal()
        merged = SealedSegment.merged(0, list(manager.sealed_segments()))
        assert merged is not None
        checker.check(collection, "segmented, merge built but not folded in")
        manager.fold(list(manager.sealed_segments()))
        checker.check(collection, "segmented, merged")

    @_SETTINGS
    @given(
        st.integers(0, 2**16),
        st.integers(0, 4),
        st.sets(st.integers(0, 149), max_size=15),
        _flat_root,
        st.sampled_from([DEFAULT_BELIEF, 1.0 - 1e-12]),
    )
    def test_flat_roots_prune_to_the_ranked_prefix(
        self, seed, long_documents, removals, tree, default_belief
    ):
        documents = skewed_corpus(seed, long_documents)
        removals |= {position + 150 for position in removals}  # keep the mirror
        checker = Checker(documents, removals, tree, default_belief)
        collection = fill(
            IRSCollection(
                "seg", Analyzer(), segment_config=SegmentConfig(seal_document_count=120)
            ),
            documents,
            removals,
        )
        checker.check(collection, "segmented")
        for layout in (checker.plain, collection):
            ranked = ranking(checker.model.score(layout, tree))
            for k in range(1, 41):
                top = topk_scores(layout, "inquery", checker.model, tree, k).values
                assert top is not None and ranking(top) == ranked[:k], f"top-{k}"

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @_SETTINGS
    @given(_documents, _removals, _tree)
    def test_imported_from_shards(self, shards, documents, removals, tree):
        """The same documents as an older build stored them across
        ``shards`` managers sealing every 4 documents, opened as one."""
        checker = Checker(documents, removals, tree)
        history = ShardedHistory(
            "old", shards, Analyzer(), SegmentConfig(seal_document_count=4)
        )
        imported = fill(history, documents, removals).load()
        checker.check(imported, f"imported from {shards} shards")

    @_SETTINGS
    @given(_documents, _removals, _tree)
    def test_vector_top_k_is_the_ranked_prefix(self, documents, removals, tree):
        """The vector model flattens the same trees; its exhaustive path now
        reads columns too, so hold its top-k to its own ranked prefix in
        the segmented layout."""
        model = VectorSpaceModel()
        collection = fill(
            IRSCollection(
                "seg", Analyzer(), segment_config=SegmentConfig(seal_document_count=4)
            ),
            documents,
            removals,
        )
        plain = fill(IRSCollection("plain", Analyzer()), documents, removals)
        got = model.score(collection, tree)
        assert got == model.score(plain, tree)
        for k in TOP_KS:
            top = engine_topk(collection, "vector", model, tree, k)
            assert ranking(top) == ranking(got)[:k]


class TestSetOperatorsEqualScalarOperators:
    """The algebra itself, without an index: ``set_*`` against ``op_*``."""

    _belief = st.floats(0.0, 1.0, allow_nan=False)
    _part = st.tuples(st.dictionaries(st.integers(0, 12), _belief, max_size=8), _belief)
    _parts = st.lists(_part, min_size=1, max_size=4)

    @staticmethod
    def _scalar(parts, doc_id):
        return [values.get(doc_id, default) for values, default in parts]

    def _assert_equal(self, folded, scalar, parts):
        values, default = folded
        universe = set().union(*(set(v) for v, _d in parts)) | {99}
        assert set(values) == universe - {99}
        for doc_id in universe:
            assert values.get(doc_id, default) == scalar(self._scalar(parts, doc_id))

    @given(_parts)
    def test_and_or_sum_max(self, parts):
        self._assert_equal(ops.set_and(parts), ops.op_and, parts)
        self._assert_equal(ops.set_or(parts), ops.op_or, parts)
        self._assert_equal(ops.set_sum(parts), ops.op_sum, parts)
        self._assert_equal(ops.set_max(parts), ops.op_max, parts)

    @given(_parts, st.data())
    def test_wsum(self, parts, data):
        weights = data.draw(
            st.lists(_weight, min_size=len(parts), max_size=len(parts))
        )
        values, default = ops.set_wsum(weights, parts)
        for doc_id in set().union(*(set(v) for v, _d in parts)) | {99}:
            assert values.get(doc_id, default) == ops.op_wsum(
                weights, self._scalar(parts, doc_id)
            )

    @given(_part)
    def test_not(self, part):
        values, default = ops.set_not(part)
        assert default == ops.op_not(part[1])
        assert values == {d: ops.op_not(b) for d, b in part[0].items()}

    def test_inputs_are_not_mutated(self):
        first = ({1: 0.5, 2: 0.6}, 0.4)
        second = ({2: 0.7, 3: 0.8}, 0.4)
        snapshot = (dict(first[0]), dict(second[0]))
        for combine in (ops.set_and, ops.set_or, ops.set_sum, ops.set_max):
            combine([first, second])
            combine([first])
        ops.set_wsum([1.0, 2.0], [first, second])
        assert (first[0], second[0]) == snapshot
