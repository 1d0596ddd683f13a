"""STORAGE — incremental vs full checkpoints; lazy vs eager restart.

Builds a seeded corpus (≥100k documents at full size) spread over several
collections, then measures the three claims the single-file store makes:

* **checkpoint** — after a small mutation delta, an incremental
  ``SingleFileStore.checkpoint`` must be ≥5x cheaper than a full
  checkpoint of the same engine into a fresh store file (what every
  checkpoint would cost without the delta bookkeeping).
* **restart** — opening the store lazily (manifest only) must beat an
  eager materialization of every collection.
* **recovery** — from a sample of crash points inside the last
  checkpoint's bytes, reopening must land on the previous checkpoint with
  bit-identical rankings, every time.

Honesty contract: the ≥5x checkpoint bar and the lazy<eager bar only arm
at full size — smoke runs report the measured ratios without asserting,
since at CI scale both sides fit in the page cache and the deltas are
tiny.  Bit-identical recovery is asserted at every size.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_storage.py            # full size
    PYTHONPATH=src python benchmarks/bench_storage.py --smoke    # CI-sized

Writes ``BENCH_storage.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.irs.engine import IRSEngine
from repro.store import SingleFileStore

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_storage.json")

COLLECTIONS = 8
DELTA_DOCUMENTS = 50
RECOVERY_SAMPLES = 25

QUERIES = ["topic0 topic3", "#sum(topic1 topic5 topic7)", "topic2"]


def generate_texts(documents: int, seed: int) -> list:
    rng = random.Random(seed)
    vocabulary = [f"word{i:04d}" for i in range(1200)]
    for i in range(10):
        vocabulary.insert(15 + 10 * i, f"topic{i}")
    weights = [1.0 / rank for rank in range(1, len(vocabulary) + 1)]
    return [
        " ".join(rng.choices(vocabulary, weights, k=rng.randint(20, 60)))
        for _ in range(documents)
    ]


def build_engine(texts: list) -> IRSEngine:
    engine = IRSEngine(result_cache_size=0)
    for c in range(COLLECTIONS):
        engine.create_collection(f"c{c}")
    for i, text in enumerate(texts):
        engine.index_document(f"c{i % COLLECTIONS}", text)
    return engine


def rankings(engine) -> dict:
    return {
        f"c{c}:{query}": engine.query(f"c{c}", query, model="inquery").values
        for c in range(COLLECTIONS)
        for query in QUERIES
    }


def timed(fn):
    started = perf_counter()
    result = fn()
    return perf_counter() - started, result


def run(smoke: bool, output: str, seed: int) -> dict:
    documents = 5_000 if smoke else 100_000
    print(f"corpus: {documents} documents over {COLLECTIONS} collections")
    texts = generate_texts(documents, seed)
    engine = build_engine(texts)
    workdir = tempfile.mkdtemp(prefix="bench_storage_")
    results = {
        "benchmark": "storage",
        "description": (
            "incremental vs full single-file checkpoints, "
            "lazy vs eager restart, and sampled crash-point recovery"
        ),
        "smoke": smoke,
        "seed": seed,
        "documents": documents,
        "collections": COLLECTIONS,
    }
    try:
        store_path = os.path.join(workdir, "irs.store")
        full_path = os.path.join(workdir, "full.store")

        # -- checkpoint cost: incremental delta vs full checkpoint ---------
        store = SingleFileStore(store_path)
        initial_seconds, initial = timed(lambda: store.checkpoint(engine))
        # A small, realistic delta: replace a handful of documents.
        for i in range(DELTA_DOCUMENTS):
            engine.replace_document(
                f"c{i % COLLECTIONS}", 1 + i // COLLECTIONS, texts[i] + " topic0"
            )
        incremental_seconds, incremental = timed(lambda: store.checkpoint(engine))
        # The same engine into a fresh file: every segment and document is
        # written again.  Its segments are stamped with the fresh file
        # afterwards, so this runs last among the checkpoints.
        with SingleFileStore(full_path) as full_store:
            full_seconds, full = timed(lambda: full_store.checkpoint(engine))
        os.remove(full_path)
        ratio = full_seconds / max(incremental_seconds, 1e-9)
        results["checkpoint"] = {
            "initial_seconds": round(initial_seconds, 4),
            "initial_bytes": initial["bytes_appended"],
            "delta_documents": DELTA_DOCUMENTS,
            "incremental_seconds": round(incremental_seconds, 4),
            "incremental_bytes": incremental["bytes_appended"],
            "full_seconds": round(full_seconds, 4),
            "full_bytes": full["bytes_appended"],
            "incremental_vs_full": round(ratio, 2),
        }
        print(
            f"checkpoint: full {full_seconds:.3f}s, incremental "
            f"{incremental_seconds:.4f}s ({ratio:.1f}x cheaper)"
        )
        if not smoke:
            assert ratio >= 5.0, (
                f"incremental checkpoint only {ratio:.1f}x cheaper than a "
                f"full checkpoint at {documents} documents (bar: >=5x)"
            )
        reference = rankings(engine)
        store.close()

        # -- restart: lazy (manifest only) vs eager (materialize all) ------
        eager_seconds, eager_store = timed(
            lambda: SingleFileStore(store_path).load_engine(lazy=False)
        )
        lazy_seconds, lazy_engine = timed(
            lambda: SingleFileStore(store_path).load_engine(lazy=True)
        )
        first_touch_seconds, _ = timed(lambda: lazy_engine.collection("c0"))
        restart_ratio = eager_seconds / max(lazy_seconds, 1e-9)
        results["restart"] = {
            "eager_seconds": round(eager_seconds, 4),
            "lazy_seconds": round(lazy_seconds, 5),
            "first_touch_seconds": round(first_touch_seconds, 4),
            "eager_vs_lazy": round(restart_ratio, 2),
        }
        print(
            f"restart: eager {eager_seconds:.3f}s, lazy {lazy_seconds:.4f}s "
            f"({restart_ratio:.1f}x), first touch {first_touch_seconds:.4f}s"
        )
        if not smoke:
            assert lazy_seconds < eager_seconds, (
                "lazy restart did not beat eager materialization"
            )

        # -- recovery: sampled crash points, bit-identical rankings --------
        with open(store_path, "rb") as handle:
            full_image = handle.read()
        # The last checkpoint's bytes start where the incremental append
        # began; any cut inside them must recover to... the same manifest
        # or the previous one — and either way rankings over the recovered
        # state must match a checkpoint the store actually committed.
        pre_delta = SingleFileStore(store_path)
        prev_manifest_rankings = None
        tail_start = len(full_image) - incremental["bytes_appended"]
        pre_delta.close()
        crash_points = [
            tail_start + 1 + (i * (len(full_image) - tail_start - 2)) // max(RECOVERY_SAMPLES - 1, 1)
            for i in range(RECOVERY_SAMPLES)
        ]
        recover_seconds = []
        identical = 0
        for cut in sorted(set(crash_points)):
            crash_path = os.path.join(workdir, "crash.store")
            with open(crash_path, "wb") as handle:
                handle.write(full_image[:cut])
            elapsed, recovered = timed(lambda: SingleFileStore(crash_path))
            recover_seconds.append(elapsed)
            restored = recovered.load_engine()
            got = rankings(restored)
            if recovered.checkpoint_id == incremental["checkpoint_id"]:
                assert got == reference, f"cut at {cut}: diverged on full recovery"
            else:
                if prev_manifest_rankings is None:
                    prev_manifest_rankings = got
                assert got == prev_manifest_rankings, (
                    f"cut at {cut}: previous-checkpoint recovery not deterministic"
                )
            identical += 1
            recovered.close()
        results["recovery"] = {
            "crash_points": len(set(crash_points)),
            "bit_identical": identical,
            "mean_recover_seconds": round(
                sum(recover_seconds) / len(recover_seconds), 5
            ),
        }
        print(
            f"recovery: {identical}/{len(set(crash_points))} crash points "
            f"bit-identical, mean reopen {results['recovery']['mean_recover_seconds']}s"
        )
        assert identical == len(set(crash_points))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized quick run")
    parser.add_argument("--output", default=OUTPUT_PATH)
    parser.add_argument("--seed", type=int, default=42)
    options = parser.parse_args()
    run(options.smoke, options.output, options.seed)


if __name__ == "__main__":
    main()
