"""STATS — corpus realism: the synthetic-MMF substitution validated.

The paper's MMF document base is proprietary; DESIGN.md §2 substitutes a
seeded generator.  This bench prints the text-statistics evidence that the
substitute behaves like natural text where retrieval cares: Zipf-like
rank-frequency skew (so idf discriminates) and Heaps-like sublinear
vocabulary growth, at several corpus scales.
"""

from benchmarks.conftest import build_corpus_system
from repro.core.collection import _create_collection, index_objects
from repro.irs.statistics import statistics_for_collection

SIZES = [10, 25, 50]


def test_corpus_statistics(report, benchmark):
    def collect():
        rows = []
        for size in SIZES:
            system = build_corpus_system(documents=size, paragraphs=4, seed=42)
            collection_obj = _create_collection(
                system.db, "stats", "ACCESS p FROM p IN PARA"
            )
            index_objects(collection_obj)
            stats = statistics_for_collection(system.engine.collection("stats"))
            rows.append(
                [
                    size,
                    stats.documents,
                    stats.tokens,
                    stats.vocabulary,
                    stats.zipf_slope,
                    stats.heaps_beta,
                    stats.type_token_ratio,
                ]
            )
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    report(
        "corpus_statistics",
        "Synthetic corpus realism (paragraph collections)",
        ["docs", "IRS docs", "tokens", "vocabulary", "zipf slope", "heaps beta", "TTR"],
        rows,
        notes=(
            "Natural text: Zipf slope near -1, Heaps beta ~0.4-0.8, TTR "
            "falling with scale.  The generator's topic vocabularies plus "
            "filler reproduce the skew retrieval depends on (idf spread), "
            "which is what the substitution must preserve (DESIGN.md §2)."
        ),
    )
    for _size, _docs, _tokens, _vocab, slope, beta, _ttr in rows:
        assert slope < -0.3
        assert 0.05 < beta < 0.95
    # TTR falls as the corpus grows (vocabulary saturates).
    assert rows[-1][6] < rows[0][6]
