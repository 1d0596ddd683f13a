"""TREC-style retrieval evaluation: qrels, runs, summary measures.

The 1996 IR community evaluated systems with relevance judgments (qrels)
and ranked runs; this module provides that machinery for the reproduction's
experiments: mean average precision, P@k, R-precision, recall, and a
paired sign test for comparing two runs over the same topics.

A *run* is ``{topic_id: ranked list of doc keys}``; *qrels* are
``{topic_id: set of relevant doc keys}``.  Doc keys are strings (OIDs in
the coupled setting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from repro.workloads.metrics import average_precision, precision_at_k, recall

Qrels = Mapping[str, Set[str]]
Run = Mapping[str, Sequence[str]]

@dataclass(frozen=True)
class TopicResult:
    """Per-topic evaluation measures."""

    topic: str
    average_precision: float
    r_precision: float
    precision_at_5: float
    precision_at_10: float
    recall: float


@dataclass(frozen=True)
class RunEvaluation:
    """Aggregate evaluation of one run."""

    per_topic: Tuple[TopicResult, ...]

    @property
    def mean_average_precision(self) -> float:
        if not self.per_topic:
            return 0.0
        return sum(t.average_precision for t in self.per_topic) / len(self.per_topic)

    @property
    def mean_r_precision(self) -> float:
        if not self.per_topic:
            return 0.0
        return sum(t.r_precision for t in self.per_topic) / len(self.per_topic)

    def mean_precision_at(self, k: int) -> float:
        if not self.per_topic:
            return 0.0
        attr = {5: "precision_at_5", 10: "precision_at_10"}.get(k)
        if attr is None:
            raise ValueError("only P@5 and P@10 are aggregated")
        return sum(getattr(t, attr) for t in self.per_topic) / len(self.per_topic)


def r_precision(ranked: Sequence[str], relevant: Set[str]) -> float:
    """Precision at rank R where R = number of relevant documents."""
    if not relevant:
        return 0.0
    r = len(relevant)
    top = list(ranked)[:r]
    if not top:
        return 0.0
    return sum(1 for item in top if item in relevant) / r


def evaluate_run(run: Run, qrels: Qrels) -> RunEvaluation:
    """Evaluate a run against qrels (topics without judgments are skipped)."""
    results = []
    for topic in sorted(qrels):
        relevant = qrels[topic]
        if not relevant:
            continue
        ranked = list(run.get(topic, ()))
        results.append(
            TopicResult(
                topic=topic,
                average_precision=average_precision(ranked, sorted(relevant)),
                r_precision=r_precision(ranked, relevant),
                precision_at_5=precision_at_k(ranked, sorted(relevant), 5) if ranked else 0.0,
                precision_at_10=precision_at_k(ranked, sorted(relevant), 10) if ranked else 0.0,
                recall=recall(ranked, sorted(relevant)),
            )
        )
    return RunEvaluation(tuple(results))


def sign_test(run_a: Run, run_b: Run, qrels: Qrels) -> Dict[str, float]:
    """Paired sign test on per-topic average precision.

    Returns wins for each run, ties, and the two-sided binomial p-value
    (exact, no scipy dependency needed for small topic counts).
    """
    eval_a = {t.topic: t.average_precision for t in evaluate_run(run_a, qrels).per_topic}
    eval_b = {t.topic: t.average_precision for t in evaluate_run(run_b, qrels).per_topic}
    wins_a = wins_b = ties = 0
    for topic in eval_a:
        delta = eval_a[topic] - eval_b.get(topic, 0.0)
        if abs(delta) < 1e-12:
            ties += 1
        elif delta > 0:
            wins_a += 1
        else:
            wins_b += 1
    n = wins_a + wins_b
    p_value = 1.0
    if n > 0:
        from math import comb

        k = min(wins_a, wins_b)
        tail = sum(comb(n, i) for i in range(0, k + 1)) / (2**n)
        p_value = min(1.0, 2 * tail)
    return {
        "wins_a": wins_a,
        "wins_b": wins_b,
        "ties": ties,
        "p_value": p_value,
    }


def run_from_results(results: Mapping[str, Mapping[str, float]]) -> Dict[str, List[str]]:
    """Turn ``{topic: {doc_key: score}}`` into a ranked run (score desc,
    key as deterministic tiebreaker)."""
    return {
        topic: [
            key
            for key, _score in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        for topic, scores in results.items()
    }
