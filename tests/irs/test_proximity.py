"""Proximity operators: #odN / #uwN window matching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import IRSQuerySyntaxError
from repro.irs.analysis import Analyzer
from repro.irs.collection import PROXIMITY_MEMO_LIMIT, IRSCollection
from repro.irs.engine import IRSEngine
from repro.irs.proximity import (
    candidate_documents,
    ordered_window_matches,
    proximity_tf,
    unordered_window_matches,
)
from repro.irs.queries import ProximityNode, format_query, parse_irs_query


class TestWindowCounting:
    def test_ordered_adjacent(self):
        # "a b" at positions a:[0], b:[1]
        assert ordered_window_matches([[0], [1]], 1) == 1

    def test_ordered_gap_exceeds_window(self):
        assert ordered_window_matches([[0], [5]], 3) == 0
        assert ordered_window_matches([[0], [5]], 5) == 1

    def test_ordered_wrong_order_never_matches(self):
        assert ordered_window_matches([[5], [0]], 10) == 0

    def test_ordered_counts_combinations(self):
        # a at 0 and 2; b at 1 and 3 -> (0,1) gap 1 and (2,3) gap 1 match;
        # (0,3) has gap 3 > window 2.
        assert ordered_window_matches([[0, 2], [1, 3]], 2) == 2
        assert ordered_window_matches([[0, 2], [1, 3]], 3) == 3

    def test_ordered_three_terms(self):
        assert ordered_window_matches([[0], [1], [2]], 1) == 1
        assert ordered_window_matches([[0], [2], [4]], 1) == 0

    def test_empty_positions(self):
        assert ordered_window_matches([[0], []], 5) == 0
        assert unordered_window_matches([[], [1]], 5) == 0

    def test_unordered_any_order(self):
        assert unordered_window_matches([[1], [0]], 2) == 1
        assert unordered_window_matches([[0], [1]], 2) == 1

    def test_unordered_span_bound(self):
        assert unordered_window_matches([[0], [4]], 4) == 0
        assert unordered_window_matches([[0], [4]], 5) == 1

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True),
        st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True),
        st.integers(1, 10),
    )
    def test_ordered_subset_of_unordered_window(self, a_positions, b_positions, window):
        ordered = ordered_window_matches([sorted(a_positions), sorted(b_positions)], window)
        # every ordered match (gap <= w) lies in an unordered window of w+1
        unordered = unordered_window_matches(
            [sorted(a_positions), sorted(b_positions)], window + 1
        )
        if ordered > 0:
            assert unordered > 0


@pytest.fixture
def collection():
    c = IRSCollection("prox", Analyzer(stemming=False, stopwords=set()))
    c.add_document("information retrieval systems store documents")     # 1: phrase
    c.add_document("retrieval of information is the core task")         # 2: reversed, distant
    c.add_document("information about retrieval quality and ranking")   # 3: gap 1
    c.add_document("cooking dinner tonight")                            # 4: neither
    return c


class TestProximityTf:
    def test_phrase_matches_adjacent_only(self, collection):
        assert proximity_tf(collection, 1, ["information", "retrieval"], 1, True) == 1
        assert proximity_tf(collection, 2, ["information", "retrieval"], 1, True) == 0
        assert proximity_tf(collection, 3, ["information", "retrieval"], 1, True) == 0

    def test_wider_ordered_window(self, collection):
        assert proximity_tf(collection, 3, ["information", "retrieval"], 2, True) == 1

    def test_unordered_window_catches_reversed(self, collection):
        assert proximity_tf(collection, 2, ["information", "retrieval"], 3, False) == 1

    def test_missing_term_no_match(self, collection):
        assert proximity_tf(collection, 4, ["information", "retrieval"], 9, True) == 0

    def test_candidates_require_all_terms(self, collection):
        assert candidate_documents(collection, ["information", "retrieval"]) == [1, 2, 3]


class TestParsing:
    def test_od_syntax(self):
        node = parse_irs_query("#od1(information retrieval)")
        assert isinstance(node, ProximityNode)
        assert node.ordered and node.window == 1
        assert node.terms() == ["information", "retrieval"]

    def test_uw_syntax(self):
        node = parse_irs_query("#uw5(a b c)")
        assert not node.ordered and node.window == 5
        assert len(node.term_nodes) == 3

    def test_nested_in_operators(self):
        tree = parse_irs_query("#and(#od1(a b) c)")
        assert isinstance(tree.children[0], ProximityNode)

    def test_format_round_trip(self):
        for text in ("#od1(a b)", "#uw7(x y z)", "#and(#od2(a b) c)"):
            assert parse_irs_query(format_query(parse_irs_query(text))) == parse_irs_query(text)

    def test_non_term_operand_rejected(self):
        with pytest.raises(IRSQuerySyntaxError):
            parse_irs_query("#od1(#and(a b) c)")

    def test_single_term_rejected(self):
        with pytest.raises(IRSQuerySyntaxError):
            parse_irs_query("#od1(a)")

    def test_zero_window_rejected(self):
        with pytest.raises(IRSQuerySyntaxError):
            parse_irs_query("#od0(a b)")


class TestRetrieval:
    @pytest.fixture
    def engine(self, collection):
        e = IRSEngine()
        e._collections["prox"] = collection
        return e

    def test_inquery_model_ranks_phrase_first(self, engine):
        result = engine.query("prox", "#od1(information retrieval)")
        assert set(result.values) == {1}

    def test_uw_retrieves_all_cooccurrences(self, engine):
        result = engine.query("prox", "#uw6(information retrieval)")
        assert set(result.values) >= {1, 3}

    def test_boolean_model_proximity(self, engine):
        result = engine.query("prox", "#od1(information retrieval)", model="boolean")
        assert set(result.values) == {1}

    def test_vector_model_degrades_to_bag(self, engine):
        result = engine.query("prox", "#od1(information retrieval)", model="vector")
        assert set(result.values) == {1, 2, 3}

    def test_phrase_beats_loose_cooccurrence_in_belief(self, engine):
        phrase = engine.query("prox", "#od1(information retrieval)").values
        loose = engine.query("prox", "#uw9(information retrieval)").values
        assert phrase[1] >= loose[3]

    def test_proximity_in_coupled_queries(self, mmf_system, para_collection):
        from repro.core.collection import _get_irs_result

        values = _get_irs_result(para_collection, "#od2(remote login)")
        classes = {mmf_system.db.get_object(oid).class_name for oid in values}
        assert classes <= {"PARA"}
        assert values  # "protocol for remote login" matches


class TestProximityMemo:
    def test_a_stream_of_distinct_windows_stays_at_the_bound(self):
        engine = IRSEngine(result_cache_size=0)
        engine.create_collection("c")
        engine.index_document("c", "information retrieval systems")
        engine.index_document("c", "retrieval of stored information")
        memo = engine.collection("c").proximity_memo
        windows = range(1, PROXIMITY_MEMO_LIMIT + 41)
        with obs.instrumentation() as (_tracer, metrics):
            for window in windows:
                engine.query("c", f"#uw{window}(information retrieval)")
            assert len(memo) == PROXIMITY_MEMO_LIMIT
            assert metrics.counter("irs.proximity_cache.evictions").value == 40
            assert metrics.counter("irs.proximity_cache.misses").value == len(windows)
            engine.query("c", f"#uw{windows[-1]}(information retrieval)")
            assert metrics.counter("irs.proximity_cache.hits").value == 1
