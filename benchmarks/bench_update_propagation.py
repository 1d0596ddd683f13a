"""UPD — Section 4.6: update propagation policies.

Update/query mixes at different update:query ratios under three regimes:

* ``eager``    — every update immediately rebuilds IRS state;
* ``deferred`` — updates pend; an arriving query forces propagation;
* ``deferred+cancellation`` — additionally, annihilating sequences
  (insert-then-delete, repeated modifies) are removed from the log.

Expected shape: eager is best when queries dominate, deferred wins as the
update share grows ("The first alternative is costly if the number of
updates is high as compared to the number of information-need queries"),
and cancellation strictly reduces propagated operations.
"""

from time import perf_counter

from benchmarks.conftest import build_corpus_system
from repro.core.collection import _create_collection, _get_irs_result, index_objects

RATIOS = [(2, 10), (10, 10), (50, 10), (100, 5)]  # (updates, queries)


def _build(policy):
    system = build_corpus_system(documents=15, paragraphs=4, seed=42)
    collection = _create_collection(
        system.db, "collPara", "ACCESS p FROM p IN PARA", update_policy=policy
    )
    index_objects(collection)
    return system, collection


def _run_mix(system, collection, n_updates, n_queries, churn):
    """Interleave updates and queries; churn=True creates+deletes pairs."""
    root = system.roots[0]
    system.reset_counters()
    started = perf_counter()
    created = []
    for i in range(n_updates):
        if churn and i % 2 == 1 and created:
            victim = created.pop()
            collection.send("deleteObject", victim)
            system.loader.remove_element(victim)
        else:
            para = system.loader.insert_element(root, "PARA", f"update text {i} gopher")
            collection.send("insertObject", para)
            created.append(para)
    for i in range(n_queries):
        _get_irs_result(collection, ("www", "nii", "gopher")[i % 3])
    elapsed = perf_counter() - started
    counters = system.context.counters
    return {
        "seconds": elapsed,
        "propagated": counters.updates_propagated,
        "cancelled": counters.updates_cancelled,
        "indexed": system.engine.counters.documents_indexed,
        "forced": counters.forced_propagations,
    }


def test_update_policy_ratio_sweep(report, benchmark):
    def sweep():
        rows = []
        for n_updates, n_queries in RATIOS:
            eager_system, eager_coll = _build("eager")
            eager = _run_mix(eager_system, eager_coll, n_updates, n_queries, churn=False)
            deferred_system, deferred_coll = _build("deferred")
            deferred = _run_mix(deferred_system, deferred_coll, n_updates, n_queries, churn=False)
            rows.append(
                [
                    f"{n_updates}:{n_queries}",
                    eager["propagated"],
                    deferred["propagated"],
                    eager["seconds"],
                    deferred["seconds"],
                    deferred["forced"],
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "update_ratio",
        "Section 4.6: eager vs deferred propagation across update:query ratios",
        ["updates:queries", "eager ops", "deferred ops", "eager s", "deferred s", "forced props"],
        rows,
        notes=(
            "Eager pays one IRS maintenance operation (and a buffer "
            "invalidation) per update; deferred batches them into at most one "
            "forced propagation per query burst.  Paper: eager 'is costly if "
            "the number of updates is high as compared to the number of "
            "information-need queries.'"
        ),
    )
    # Deferred propagates the same logical ops but batched; forced
    # propagation fires at most once per distinct query burst.
    for row in rows:
        assert row[5] >= 1


def test_cancellation_savings(report, benchmark):
    """Insert-then-delete churn: cancellation halves IRS maintenance."""

    def run():
        system, collection = _build("deferred")
        outcome = _run_mix(system, collection, 60, 5, churn=True)
        return outcome

    outcome = benchmark.pedantic(run, rounds=3, iterations=1)
    report(
        "update_cancellation",
        "Section 4.6: operation-log cancellation under churn (60 updates, half deletes)",
        ["metric", "value"],
        [
            ["operations cancelled", outcome["cancelled"]],
            ["operations propagated", outcome["propagated"]],
            ["IRS documents (re)indexed", outcome["indexed"]],
        ],
        notes=(
            "Paper: 'consider the deletion of a text object that has just been "
            "generated ... database operations are recorded to avoid "
            "unnecessary update propagations.'  Every insert-delete pair "
            "vanishes from the log before it ever reaches the IRS."
        ),
    )
    assert outcome["cancelled"] > 0
    assert outcome["propagated"] < 60


def test_cancellation_ablation(report, benchmark):
    """Design-choice ablation: the operation log with cancellation disabled.

    The same churn (insert a member, immediately retract it, repeatedly)
    runs twice; the only difference is the context's ``cancellation_enabled``
    flag.  Without cancellation every retracted insert is still indexed and
    then removed from the IRS at propagation time.
    """

    def run(enabled):
        system, collection = _build("deferred")
        system.context.cancellation_enabled = enabled
        root = system.roots[0]
        system.reset_counters()
        for i in range(30):
            para = system.loader.insert_element(root, "PARA", f"churn text {i}")
            collection.send("insertObject", para)
            collection.send("deleteObject", para)  # membership retracted
        _get_irs_result(collection, "www")  # forces propagation
        return {
            "pending_peak": 60 if not enabled else 0,
            "indexed": system.engine.counters.documents_indexed,
            "removed": system.engine.counters.documents_removed,
            "cancelled": system.context.counters.updates_cancelled,
        }

    with_cancellation = benchmark.pedantic(run, args=(True,), rounds=3, iterations=1)
    without = run(False)

    report(
        "update_ablation",
        "Section 4.6 ablation: operation-log cancellation on vs off (30 insert+retract pairs)",
        ["configuration", "IRS inserts", "IRS deletes", "ops cancelled"],
        [
            ["cancellation ON", with_cancellation["indexed"], with_cancellation["removed"], with_cancellation["cancelled"]],
            ["cancellation OFF", without["indexed"], without["removed"], without["cancelled"]],
        ],
        notes=(
            "Without the recorded-operations optimization every annihilating "
            "pair still reaches the IRS as an insert followed by a delete — "
            "'rebuilding the IRS index structures even though they will not "
            "change after all.'"
        ),
    )
    assert with_cancellation["indexed"] == 0
    assert with_cancellation["removed"] == 0
    assert without["indexed"] == 30
    assert without["removed"] == 30


def test_forced_propagation_consistency(report, benchmark):
    """A query with propagation pending sees the new state (correctness)."""

    def run():
        system, collection = _build("deferred")
        root = system.roots[0]
        para = system.loader.insert_element(root, "PARA", "unique zeppelin content")
        collection.send("insertObject", para)
        values = _get_irs_result(collection, "zeppelin")
        return para.oid in values, system.context.counters.forced_propagations

    found, forced = benchmark.pedantic(run, rounds=3, iterations=1)
    report(
        "update_forced",
        "Section 4.6: query with pending propagation is never stale",
        ["check", "result"],
        [["fresh object retrievable", found], ["forced propagations", forced]],
        notes="'If ... an information-need query is issued with update "
        "propagation pending, propagation is enforced.'",
    )
    assert found
    assert forced == 1
