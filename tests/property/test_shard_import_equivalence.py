"""Property-based proof that an imported shard list scores *exactly* like
one collection.

Older builds could partition a collection across N segment managers
("shards"); what they stored opens as one manager holding every shard's
segments, in shard order (``tests.legacy``).  The union view sums integer
statistics across those segments and norms are accumulated in one
canonical term order, so the claim is bit-identical results — not
approximately equal.  Hypothesis hunts for a corpus that breaks it:

* exhaustive scoring equality (``==`` on the score dicts, no tolerance)
  for shard counts {1, 2, 4, 7} under all three retrieval models;
* top-k equality for k in {1, 10, 100} with deliberate ties at the cut —
  every corpus is doubled so *every* score is tied at least once;
* equality preserved across interleaved adds / removes / replacements
  applied to both collections after the import.

Every example is derandomized: the suite is a reproducible gate.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.models import MODELS
from repro.irs.queries import parse_irs_query
from repro.irs.segments import SegmentConfig
from repro.irs.topk import topk_scores, truncate_top_k
from tests.legacy import ShardedHistory

_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

SHARD_COUNTS = [1, 2, 4, 7]
TOP_KS = [1, 10, 100]

VOCABULARY = [
    "www", "nii", "telnet", "database", "information", "retrieval",
    "remote", "pages",
] + [f"w{i}" for i in range(20)]

QUERIES = [
    "www",
    "www nii",
    "#sum(www nii telnet)",
    "#and(www nii)",
    "#or(telnet database)",
    "#wsum(2 www 1 nii 0.5 telnet)",
]

_documents = st.lists(
    st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=12),
    min_size=3,
    max_size=30,
)

_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=8),
        ),
        st.tuples(st.just("remove"), st.integers(0, 50)),
        st.tuples(
            st.just("replace"),
            st.tuples(
                st.integers(0, 50),
                st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=8),
            ),
        ),
    ),
    max_size=10,
)


def build_pair(texts, shard_count, segment_config=None):
    """The same corpus as one collection and as the shard list an older
    build stored, opened; doc ids allocate identically."""
    analyzer = Analyzer()
    plain = IRSCollection("plain", analyzer)
    history = ShardedHistory("imported", shard_count, analyzer, segment_config)
    for text in texts:
        assert plain.add_document(text) == history.add_document(text)
    return plain, history.load()


def engine_topk(collection, model_name, model_impl, tree, k):
    """Top-k exactly as the engine computes it: pruned, else truncated."""
    outcome = topk_scores(collection, model_name, model_impl, tree, k)
    if outcome.values is not None:
        return outcome.values
    return truncate_top_k(model_impl.score(collection, tree), k)


def ranking(values):
    return sorted(values, key=lambda doc_id: (-values[doc_id], doc_id))


def assert_bit_identical(imported_values, plain_values, context):
    # Dict equality is float bit-equality here — no tolerance on purpose.
    assert imported_values == plain_values, (
        f"{context}: imported scores diverge from one collection's"
    )
    assert ranking(imported_values) == ranking(plain_values), (
        f"{context}: rank order diverges"
    )


class TestExhaustiveEquivalence:
    @pytest.mark.parametrize("shard_count", SHARD_COUNTS)
    @_SETTINGS
    @given(_documents)
    def test_all_models_bit_identical(self, shard_count, documents):
        texts = [" ".join(words) for words in documents]
        plain, imported = build_pair(texts, shard_count)
        for model_name, model_cls in MODELS.items():
            model = model_cls()
            for query in QUERIES:
                tree = parse_irs_query(query, default_operator=model.default_operator)
                assert_bit_identical(
                    model.score(imported, tree),
                    model.score(plain, tree),
                    f"{model_name}/{query}/shards={shard_count}",
                )

    @_SETTINGS
    @given(_documents)
    def test_segmented_shards_bit_identical(self, documents):
        # Shards that sealed on their own — segments of interleaved doc
        # ids — must not change a single bit either.
        texts = [" ".join(words) for words in documents]
        plain, imported = build_pair(
            texts, 3, segment_config=SegmentConfig(seal_document_count=4)
        )
        model = MODELS["inquery"]()
        for query in QUERIES:
            tree = parse_irs_query(query, default_operator=model.default_operator)
            assert_bit_identical(
                model.score(imported, tree),
                model.score(plain, tree),
                f"segmented-shards/{query}",
            )


class TestTopKEquivalence:
    @pytest.mark.parametrize("shard_count", SHARD_COUNTS)
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @_SETTINGS
    @given(_documents)
    def test_topk_bit_identical_with_ties_at_k(self, shard_count, model_name, documents):
        # Double the corpus: every document exists twice, so every score
        # is tied — k routinely lands *inside* a tie group and the
        # (-value, doc_id) tie-break must agree across layouts.
        texts = [" ".join(words) for words in documents] * 2
        plain, imported = build_pair(texts, shard_count)
        model = MODELS[model_name]()
        for query in QUERIES:
            tree = parse_irs_query(query, default_operator=model.default_operator)
            for k in TOP_KS:
                assert_bit_identical(
                    engine_topk(imported, model_name, model, tree, k),
                    engine_topk(plain, model_name, model, tree, k),
                    f"{model_name}/{query}/k={k}/shards={shard_count}",
                )


class TestEquivalenceUnderUpdates:
    @pytest.mark.parametrize("shard_count", [2, 4])
    @_SETTINGS
    @given(_documents, _operations)
    def test_interleaved_updates_and_deletes(self, shard_count, documents, operations):
        texts = [" ".join(words) for words in documents]
        plain, imported = build_pair(texts, shard_count)
        models = [(name, MODELS[name]()) for name in ("vector", "inquery")]
        trees = {
            name: parse_irs_query("www nii", default_operator=model.default_operator)
            for name, model in models
        }
        for op, payload in operations:
            live = sorted(plain._documents)
            if op == "add":
                text = " ".join(payload)
                assert plain.add_document(text) == imported.add_document(text)
            elif op == "remove" and live:
                victim = live[payload % len(live)]
                plain.remove_document(victim)
                imported.remove_document(victim)
            elif op == "replace" and live:
                position, words = payload
                victim = live[position % len(live)]
                text = " ".join(words)
                plain.replace_document(victim, text)
                imported.replace_document(victim, text)
            # Equality must hold at *every* intermediate state, not just
            # the final one — a stale imported statistic would surface here.
            for name, model in models:
                assert_bit_identical(
                    model.score(imported, trees[name]),
                    model.score(plain, trees[name]),
                    f"{name}/after-{op}",
                )
                assert_bit_identical(
                    engine_topk(imported, name, model, trees[name], 10),
                    engine_topk(plain, name, model, trees[name], 10),
                    f"{name}/topk-after-{op}",
                )
        assert set(plain._documents) == set(imported._documents)
