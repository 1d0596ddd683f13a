"""Mixed-query evaluation strategies (Section 4.5.3)."""

import pytest

from repro.core.collection import (
    _create_collection,
    disable_irs_first_optimization,
    enable_irs_first_optimization,
    index_objects,
)
from repro.core.mixed import evaluate_independent, evaluate_irs_first


@pytest.fixture
def setup(corpus_system):
    collection = _create_collection(
        corpus_system.db, "collPara", "ACCESS p FROM p IN PARA"
    )
    index_objects(collection)
    return corpus_system, collection


QUERY = "ACCESS p FROM p IN PARA WHERE p -> getIRSValue(coll, 'www') > 0.45"


class TestEquivalence:
    def test_same_rows_both_strategies(self, setup):
        system, collection = setup
        independent = evaluate_independent(system.db, QUERY, {"coll": collection})
        irs_first = evaluate_irs_first(system.db, QUERY, {"coll": collection})
        rows_a = sorted(str(r[0].oid) for r in independent.rows)
        rows_b = sorted(str(r[0].oid) for r in irs_first.rows)
        assert rows_a == rows_b
        assert rows_a  # non-empty workload

    def test_equivalence_with_structure_predicate(self, setup):
        system, collection = setup
        query = (
            "ACCESS p FROM p IN PARA, d IN MMFDOC "
            "WHERE d -> getAttributeValue('YEAR') = '1994' AND "
            "p -> getContaining('MMFDOC') == d AND "
            "p -> getIRSValue(coll, 'www') > 0.45"
        )
        independent = evaluate_independent(system.db, query, {"coll": collection})
        irs_first = evaluate_irs_first(system.db, query, {"coll": collection})
        assert sorted(map(repr, independent.rows)) == sorted(map(repr, irs_first.rows))


class TestCostProfile:
    def test_independent_calls_method_per_candidate(self, setup):
        system, collection = setup
        outcome = evaluate_independent(system.db, QUERY, {"coll": collection})
        paras = len(system.db.instances_of("PARA"))
        assert outcome.method_calls == paras

    def test_irs_first_avoids_per_object_calls(self, setup):
        system, collection = setup
        outcome = evaluate_irs_first(system.db, QUERY, {"coll": collection})
        assert outcome.method_calls == 0
        assert outcome.restrictor_calls == 1

    def test_one_irs_query_each_when_cold(self, setup):
        system, collection = setup
        outcome = evaluate_independent(system.db, QUERY, {"coll": collection})
        assert outcome.irs_queries == 1
        # warm now: the irs_first run needs none
        outcome2 = evaluate_irs_first(system.db, QUERY, {"coll": collection})
        assert outcome2.irs_queries == 0


class TestOptimizationToggle:
    def test_disabled_by_default(self, setup):
        system, collection = setup
        from repro.oodb.query.evaluator import QueryEvaluator

        evaluator = QueryEvaluator(system.db)
        _rows, stats = evaluator.run_with_stats(QUERY, {"coll": collection})
        assert stats.method_calls > 0  # restrictor declined

    def test_enable_disable_cycle(self, setup):
        system, collection = setup
        from repro.oodb.query.evaluator import QueryEvaluator

        enable_irs_first_optimization(system.db)
        try:
            evaluator = QueryEvaluator(system.db)
            _rows, stats = evaluator.run_with_stats(QUERY, {"coll": collection})
            assert stats.method_calls == 0
        finally:
            disable_irs_first_optimization(system.db)
        evaluator = QueryEvaluator(system.db)
        _rows, stats = evaluator.run_with_stats(QUERY, {"coll": collection})
        assert stats.method_calls > 0

    def test_less_than_comparisons_not_restricted(self, setup):
        # IRS-first only answers > and >=: a < threshold needs every object.
        system, collection = setup
        query = "ACCESS p FROM p IN PARA WHERE p -> getIRSValue(coll, 'www') < 0.45"
        outcome = evaluate_irs_first(system.db, query, {"coll": collection})
        assert outcome.method_calls > 0  # fell back to per-object
