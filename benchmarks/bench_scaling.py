"""SCALE — scaling shapes across corpus sizes.

Complements the fixed-size benches with the *shapes* that matter as the
document base grows:

* buffered IRS invocations stay constant per distinct query while the
  unbuffered count grows linearly with objects (FIG3's claim at scale);
* derivation cost grows with the composite's component count, while a
  member object answers in O(1) from the buffered result.
"""

from time import perf_counter

from benchmarks.conftest import build_corpus_system
from repro.core.collection import _create_collection, _get_irs_result, index_objects

SIZES = [5, 15, 30, 60]


def _system_of(size):
    system = build_corpus_system(documents=size, paragraphs=4, seed=42)
    collection = _create_collection(system.db, "collPara", "ACCESS p FROM p IN PARA")
    index_objects(collection)
    return system, collection


def test_buffering_scaling(report, benchmark):
    def sweep():
        rows = []
        for size in SIZES:
            system, collection = _system_of(size)
            paras = system.db.instances_of("PARA")
            system.reset_counters()
            started = perf_counter()
            for obj in paras:
                obj.send("getIRSValue", collection, "www")
            seconds = perf_counter() - started
            rows.append(
                [
                    size,
                    len(paras),
                    system.engine.counters.queries_executed,
                    len(paras),  # unbuffered would need one IRS call each
                    seconds,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "scaling_buffering",
        "Scaling: IRS invocations for one query over every paragraph",
        ["documents", "paragraphs", "IRS calls (buffered)", "IRS calls (unbuffered would be)", "seconds"],
        rows,
        notes=(
            "Buffered: exactly 1 IRS invocation regardless of object count; "
            "unbuffered grows linearly.  The gap is FIG3's speedup at scale."
        ),
    )
    for row in rows:
        assert row[2] == 1


def test_derivation_scaling(report, benchmark):
    def sweep():
        rows = []
        for size in SIZES:
            system, collection = _system_of(size)
            docs = system.db.instances_of("MMFDOC")
            _get_irs_result(collection, "www")  # warm the buffer
            started = perf_counter()
            for doc in docs:
                doc.send("getIRSValue", collection, "www")
            first_pass = perf_counter() - started
            started = perf_counter()
            for doc in docs:
                doc.send("getIRSValue", collection, "www")
            second_pass = perf_counter() - started
            rows.append([size, len(docs), first_pass, second_pass])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "scaling_derivation",
        "Scaling: derivation cost, first pass vs buffered second pass",
        ["documents", "composites derived", "first pass s", "second pass s"],
        rows,
        notes=(
            "First pass walks each composite's components (cost grows with "
            "corpus size); the derived values are amended into the persistent "
            "buffer (Figure 3), so the second pass is pure lookups."
        ),
    )
    for _size, _n, first, second in rows:
        assert second <= first
