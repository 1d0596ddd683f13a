"""TREC-style evaluation harness."""

import pytest

from repro.workloads.evaluation import (
    evaluate_run,
    r_precision,
    run_from_results,
    sign_test,
)

QRELS = {
    "t1": {"a", "b", "c"},
    "t2": {"x"},
}

PERFECT_RUN = {
    "t1": ["a", "b", "c", "z"],
    "t2": ["x", "y"],
}

POOR_RUN = {
    "t1": ["z", "y", "w", "a"],
    "t2": ["y", "z"],
}


class TestEvaluateRun:
    def test_perfect_run_map_is_one(self):
        evaluation = evaluate_run(PERFECT_RUN, QRELS)
        assert evaluation.mean_average_precision == pytest.approx(1.0)
        assert evaluation.mean_r_precision == pytest.approx(1.0)

    def test_poor_run_scores_low(self):
        evaluation = evaluate_run(POOR_RUN, QRELS)
        assert evaluation.mean_average_precision < 0.2

    def test_missing_topic_counts_as_zero(self):
        evaluation = evaluate_run({"t1": ["a", "b", "c"]}, QRELS)
        topics = {t.topic: t for t in evaluation.per_topic}
        assert topics["t2"].average_precision == 0.0

    def test_p_at_k_aggregation(self):
        evaluation = evaluate_run(PERFECT_RUN, QRELS)
        assert 0 < evaluation.mean_precision_at(5) <= 1.0
        with pytest.raises(ValueError):
            evaluation.mean_precision_at(7)

    def test_empty_qrels_topic_skipped(self):
        evaluation = evaluate_run(PERFECT_RUN, {"t1": set()})
        assert evaluation.per_topic == ()
        assert evaluation.mean_average_precision == 0.0


class TestRPrecision:
    def test_exact(self):
        assert r_precision(["a", "z", "b"], {"a", "b"}) == 0.5

    def test_empty_cases(self):
        assert r_precision([], {"a"}) == 0.0
        assert r_precision(["a"], set()) == 0.0


class TestSignTest:
    def test_identical_runs_all_ties(self):
        outcome = sign_test(PERFECT_RUN, PERFECT_RUN, QRELS)
        assert outcome["ties"] == 2
        assert outcome["p_value"] == 1.0

    def test_dominant_run_wins(self):
        outcome = sign_test(PERFECT_RUN, POOR_RUN, QRELS)
        assert outcome["wins_a"] == 2
        assert outcome["wins_b"] == 0
        assert outcome["p_value"] <= 0.5

    def test_p_value_shrinks_with_topics(self):
        qrels = {f"t{i}": {"a"} for i in range(10)}
        good = {f"t{i}": ["a"] for i in range(10)}
        bad = {f"t{i}": ["z", "a"] for i in range(10)}
        outcome = sign_test(good, bad, qrels)
        assert outcome["p_value"] < 0.01


class TestRunFromResults:
    def test_score_descending_with_key_tiebreak(self):
        run = run_from_results({"t": {"b": 0.5, "a": 0.5, "c": 0.9}})
        assert run["t"] == ["c", "a", "b"]


class TestEndToEndEvaluation:
    def test_coupled_models_evaluated(self, corpus_system):
        """MAP comparison of retrieval models through the coupling."""
        from repro.core.collection import _create_collection, _get_irs_result, index_objects
        from repro.workloads.corpus import TOPICS

        qrels = {}
        for topic in sorted(TOPICS)[:3]:
            qrels[topic] = {
                str(p.oid)
                for p in corpus_system.db.instances_of("PARA")
                if topic in p.send("getTextContent").split()
            }
        runs = {}
        for model in ("inquery", "vector"):
            collection = _create_collection(
                corpus_system.db, f"eval_{model}", "ACCESS p FROM p IN PARA",
                model=model,
            )
            index_objects(collection)
            results = {
                topic: {str(oid): v for oid, v in _get_irs_result(collection, topic).items()}
                for topic in qrels
            }
            runs[model] = run_from_results(results)
        for model, run in runs.items():
            evaluation = evaluate_run(run, qrels)
            assert evaluation.mean_average_precision > 0.9, model
