"""NEG — Section 6: negation under open- vs closed-world semantics.

"Negation, for example, has a different meaning in both worlds.  The
semantics of mixed queries including negation remain to be examined."

The table examines them: for ``NOT relevant-to(q) > t`` at several
thresholds, the closed-world (set complement within the collection) and
open-world (complemented belief) answer sets are compared — sizes, overlap,
and the objects only one semantics returns.
"""

import pytest

from benchmarks.conftest import build_corpus_system
from repro.core.collection import _create_collection, index_objects
from repro.core.negation import closed_world_not, members, open_world_not

THRESHOLDS = [0.45, 0.55, 0.61, 0.7]


@pytest.fixture(scope="module")
def setup():
    system = build_corpus_system(documents=25, paragraphs=4, seed=42)
    collection = _create_collection(system.db, "collPara", "ACCESS p FROM p IN PARA")
    index_objects(collection)
    return system, collection


def test_negation_semantics(setup, report, benchmark):
    system, collection = setup

    def sweep():
        rows = []
        universe = len(members(collection))
        for threshold in THRESHOLDS:
            closed = closed_world_not(collection, "www", threshold)
            open_ = set(open_world_not(collection, "www", threshold))
            rows.append(
                [
                    threshold,
                    universe,
                    len(closed),
                    len(open_),
                    len(closed & open_),
                    len(closed - open_),
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=3, iterations=1)
    report(
        "negation",
        "Section 6: NOT relevant-to('www') under two negation semantics",
        [
            "threshold", "members",
            "closed-world size", "open-world size",
            "both", "closed only",
        ],
        rows,
        notes=(
            "Closed world: complement of the thresholded result within the "
            "collection — everything without evidence qualifies.  Open world: "
            "complemented belief must *exceed* the threshold; objects without "
            "evidence sit at 1 - default_belief = 0.6, so thresholds above 0.6 "
            "demand positive counter-evidence no absence can provide — the "
            "open-world answer collapses while the closed-world one barely "
            "moves.  This is the divergence the paper leaves as future work."
        ),
    )
    by_threshold = {row[0]: row for row in rows}
    # Above the complemented default belief, open world collapses.
    assert by_threshold[0.7][3] == 0
    assert by_threshold[0.7][2] > 0
    # Below it, the two mostly agree.
    assert by_threshold[0.45][4] > 0
