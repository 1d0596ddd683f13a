"""CONCURRENCY — pooled-session throughput under a mixed read/update load.

Many client threads issue IRS queries through one pooled
:class:`repro.Session` while an updater thread keeps inserting member
objects (deferred policy, so arriving queries force propagation).  Measured
per worker count (1/2/4/8): end-to-end query throughput and client-side
tail latency.  Writes ``BENCH_concurrency.json`` at the repository root.

On a single CPU the win does not come from thread parallelism — scoring is
pure Python under the GIL — but from **cross-request batching**: the
dispatcher's window is ``workers x max_batch_per_worker`` requests, and one
window against the same collection becomes one group that propagates
pending updates once, takes one snapshot, and scores each distinct query
once.  More workers, bigger windows, more sharing.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_concurrency.py           # full (5k docs)
    PYTHONPATH=src python benchmarks/bench_concurrency.py --smoke   # CI-sized

The full run asserts the PR's acceptance target (>= 3x throughput at 8
workers vs 1); ``--smoke`` asserts a softer floor suited to small corpora,
where per-request overhead rather than scoring dominates.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
from time import perf_counter, sleep

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro import obs
from repro.core import DocumentSystem
from repro.service.session import Session
from repro.workloads.corpus import CorpusGenerator, load_corpus

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_concurrency.json")

WORKER_COUNTS = (1, 2, 4, 8)

#: The query mix: signal terms and operator combinations over the corpus
#: topics.  8 distinct queries, so a full 8-worker window (32 requests)
#: deduplicates roughly 4:1 while a 1-worker window (4 requests) barely
#: deduplicates at all.
QUERIES = [
    "www",
    "telnet",
    "#sum(nii infrastructure funding)",
    "#and(database transaction)",
    "#or(multimedia #and(video audio))",
    "#wsum(2 retrieval 1 ranking 0.5 relevance)",
    "#max(hypertext browser server)",
    "#sum(policy #not(telnet))",
]


def build_system(documents: int, paragraphs: int, seed: int) -> DocumentSystem:
    system = DocumentSystem()
    generator = CorpusGenerator(seed=seed)
    generated = generator.corpus(documents=documents, paragraphs=paragraphs)
    system.roots = load_corpus(system, generated)
    return system


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def batching_delta(before: dict, after: dict) -> dict:
    """Window shape between two ``obs`` registry snapshots: mean window
    and group size, and requests answered by another's scoring pass."""

    def mean(name: str) -> float:
        first = before["histograms"].get(name, {"count": 0, "sum": 0.0})
        last = after["histograms"].get(name, {"count": 0, "sum": 0.0})
        count = last["count"] - first["count"]
        return round((last["sum"] - first["sum"]) / count, 2) if count else 0.0

    name = "service.batch.dedup_saved"
    return {
        "window_size_mean": mean("service.batch.window_size"),
        "group_size_mean": mean("service.batch.group_size"),
        "dedup_saved": after["counters"].get(name, 0) - before["counters"].get(name, 0),
    }


def run_tier(
    system: DocumentSystem,
    collection,
    workers: int,
    requests: int,
    clients: int,
    update_per: int,
) -> dict:
    """One worker-count tier: identical workload, identical update schedule.

    Updates are paced by request *progress*, not wall clock — one update per
    ``update_per`` completed requests — so every tier performs exactly the
    same number of index mutations at the same workload positions and the
    comparison across worker counts is fair.
    """
    session = Session(system.db, workers=workers)
    latencies = []
    completed = [0]
    progress_lock = threading.Lock()
    errors = []
    clients_done = threading.Event()
    updates_applied = [0]
    root = system.roots[0]

    def client(offset: int, n: int) -> None:
        local = []
        try:
            for i in range(n):
                query = QUERIES[(offset + i) % len(QUERIES)]
                started = perf_counter()
                session.query(collection, query, timeout=120)
                local.append(perf_counter() - started)
                with progress_lock:
                    completed[0] += 1
        except BaseException as exc:
            errors.append(exc)
        with progress_lock:
            latencies.extend(local)

    def updater() -> None:
        try:
            for k in range(requests // update_per):
                while completed[0] < k * update_per:
                    if clients_done.is_set():
                        return
                    sleep(0.0002)
                para = system.loader.insert_element(
                    root, "PARA", f"update {k} telnet database retrieval www"
                )
                collection.send("insertObject", para)
                updates_applied[0] += 1
        except BaseException as exc:
            errors.append(exc)

    per_client = requests // clients
    threads = [
        threading.Thread(target=client, args=(offset, per_client))
        for offset in range(clients)
    ]
    update_thread = threading.Thread(target=updater)

    started = perf_counter()
    update_thread.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - started
    clients_done.set()
    update_thread.join()
    session.close()
    if errors:
        raise errors[0]

    total = per_client * clients
    return {
        "workers": workers,
        "window_size": workers * 4,
        "requests": total,
        "clients": clients,
        "updates_applied": updates_applied[0],
        "elapsed_seconds": round(elapsed, 3),
        "throughput_qps": round(total / elapsed, 2),
        "latency_ms": {
            "mean": round(statistics.mean(latencies) * 1000, 2),
            "p50": round(percentile(latencies, 0.50) * 1000, 2),
            "p95": round(percentile(latencies, 0.95) * 1000, 2),
            "p99": round(percentile(latencies, 0.99) * 1000, 2),
            "max": round(max(latencies) * 1000, 2),
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized corpus and load")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    if args.smoke:
        documents, paragraphs = 120, 5      # 600 IRS documents
        requests, clients = 192, 48
        update_per = 4
        target = 1.3
    else:
        documents, paragraphs = 1000, 5     # the 5k-document corpus
        requests, clients = 384, 48
        update_per = 4
        target = 3.0

    print(
        f"corpus: {documents * paragraphs} paragraph documents "
        f"({documents} docs x {paragraphs}), {requests} requests, "
        f"{clients} clients, one update per {update_per} requests"
    )
    build_started = perf_counter()
    system = build_system(documents, paragraphs, args.seed)
    collection = system.session.create_collection(
        "collPara", "ACCESS p FROM p IN PARA", update_policy="deferred"
    )
    system.session.index(collection)
    print(f"built and indexed in {perf_counter() - build_started:.1f} s")

    tiers = []
    for workers in WORKER_COUNTS:
        before = obs.metrics().snapshot()
        tier = run_tier(system, collection, workers, requests, clients, update_per)
        tier["batching"] = batching = batching_delta(before, obs.metrics().snapshot())
        tiers.append(tier)
        print(
            f"workers={workers}: {tier['throughput_qps']:8.1f} q/s   "
            f"p50={tier['latency_ms']['p50']:7.1f} ms   "
            f"p95={tier['latency_ms']['p95']:7.1f} ms   "
            f"p99={tier['latency_ms']['p99']:7.1f} ms   "
            f"({tier['updates_applied']} updates applied)   "
            f"window={batching['window_size_mean']:.1f} "
            f"group={batching['group_size_mean']:.1f} "
            f"dedup_saved={batching['dedup_saved']}"
        )

    base = tiers[0]["throughput_qps"]
    speedups = {t["workers"]: round(t["throughput_qps"] / base, 2) for t in tiers}
    print(f"speedup vs 1 worker: {speedups}")

    payload = {
        "benchmark": "concurrency",
        "description": (
            "pooled-session query throughput and client-side tail latency "
            "under a mixed read/update workload; speedup comes from "
            "cross-request batching (windows of workers*4 requests share one "
            "snapshot/propagation and deduplicate distinct queries)"
        ),
        "smoke": args.smoke,
        "seed": args.seed,
        "corpus_documents": documents * paragraphs,
        "queries": QUERIES,
        "tiers": tiers,
        "speedup_vs_1_worker": speedups,
    }
    with open(OUTPUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {OUTPUT_PATH}")

    system.close()

    achieved = speedups[8]
    assert achieved >= target, (
        f"8-worker speedup {achieved:.2f}x below the {target:.1f}x floor"
    )
    print(f"assertion passed: {achieved:.2f}x >= {target:.1f}x at 8 workers")


if __name__ == "__main__":
    main()
