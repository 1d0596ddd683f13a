"""PROMO — physical design: promoted SGML attributes (requirement 4).

"The full integration on the logical level must not sacrifice an efficient
implementation, i.e., on a physical level, the system must exploit the
particular semantics of the data model and access operations for improved
processing" (Section 1.2, property 4).

The table compares the YEAR predicate of the paper's second sample query
before and after promotion: candidates examined, method calls, and time.
The query text is identical — only the physical design changed.
"""

from time import perf_counter

import pytest

from benchmarks.conftest import build_corpus_system
from repro.oodb.query.evaluator import QueryEvaluator

QUERY = (
    "ACCESS d -> getAttributeValue('TITLE') FROM d IN MMFDOC "
    "WHERE d -> getAttributeValue('YEAR') = '1994'"
)


@pytest.fixture(scope="module")
def setup():
    return build_corpus_system(documents=120, paragraphs=3, seed=42)


def test_promotion_speedup(setup, report, benchmark):
    system = setup

    def run():
        evaluator = QueryEvaluator(system.db)
        started = perf_counter()
        rows, stats = evaluator.run_with_stats(QUERY)
        return rows, stats, perf_counter() - started

    rows_before, stats_before, seconds_before = run()
    system.loader.promote_attribute("MMFDOC", "YEAR")
    rows_after, stats_after, seconds_after = run()
    benchmark(lambda: QueryEvaluator(system.db).run(QUERY))

    report(
        "attribute_promotion",
        "Requirement 4: YEAR predicate before/after attribute promotion",
        ["physical design", "index probes", "method calls", "rows", "seconds"],
        [
            ["dictionary lookup (scan)", stats_before.index_probes,
             stats_before.method_calls, len(rows_before), seconds_before],
            ["promoted + index", stats_after.index_probes,
             stats_after.method_calls, len(rows_after), seconds_after],
        ],
        notes=(
            "Identical query text and identical answers; promotion turns the "
            "getAttributeValue('YEAR') predicate into an index probe: the "
            "per-document filter method calls (one per extent member) vanish "
            "and only the TITLE projections of matching documents remain."
        ),
    )
    assert sorted(rows_before) == sorted(rows_after)
    assert stats_after.method_calls < stats_before.method_calls
    assert stats_after.index_probes == 1
    assert stats_before.index_probes == 0
