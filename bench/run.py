"""One command for the system benchmark.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`` runs
one workload in this process and prints, as its last line, the result object
``BENCHMARK.json`` describes: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs every workload in a fresh subprocess, one
after another (``--repeat N`` times, seeds ``S, S+1, ...``), prints every
metric by name with its unit and sample count, and writes
``bench/out/result.json`` for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The driver starts this file as a script from a bare checkout: the system
# under test is the checkout's own src/, never an installed copy.
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro import obs  # noqa: E402

from bench import workloads  # noqa: E402
from bench.layers import layer_metrics, ratio, snapshot_delta  # noqa: E402
from bench.speed import SpeedMeter  # noqa: E402
from bench.stats import median, percentile  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import READ_KINDS, WRITE_KINDS, Recorder  # noqa: E402

OUT_DIR = os.path.join(ROOT, "bench", "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DETAIL_PREFIX = "#detail "
#: Set-up is repeated and its median reported, so one slow build does not
#: pass for a regression of set-up time.
SETUP_REPEATS = 3
SMOKE_SECONDS = 1.0
WAL_POLICY = "WAL fsync policy: default (fsync on every COMMIT and CHECKPOINT record)"


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# One workload, in this process
# --------------------------------------------------------------------------

def end_to_end(recorder: Recorder, setup_times: List[float]) -> Dict[str, float]:
    reads = recorder.of_kinds(READ_KINDS)
    return {
        "setup_s": median(setup_times),
        "ops_per_s": ratio(recorder.attempted, recorder.wall),
        "p50_ms": 1000.0 * percentile(reads, 0.50),
        "p90_ms": 1000.0 * percentile(reads, 0.90),
        "peak_rss_mb": peak_rss_mb(),
    }


def client_metrics(workload: Any, recorder: Recorder, mismatches: int) -> Dict[str, float]:
    """What a client sees beyond the gating metrics: tails and write paths.

    Only ``update_mix`` writes, checkpoints and restarts, and ``mixed_vql``
    collects some 55 reads in a run, too few for a p95.  These cannot gate
    every workload, so they are reported with the per-layer metrics.
    """
    reads = recorder.of_kinds(READ_KINDS)
    writes = recorder.of_kinds(WRITE_KINDS)
    # Propagation is work the writes caused; spread it evenly over them.
    propagation = ratio(sum(recorder.latencies.get("propagate", ())), len(writes))
    writes = [sample + propagation for sample in writes]
    return {
        "client.p95_ms": 1000.0 * percentile(reads, 0.95),
        "client.p99_ms": 1000.0 * percentile(reads, 0.99),
        "client.write_p50_ms": 1000.0 * percentile(writes, 0.50),
        "client.write_p95_ms": 1000.0 * percentile(writes, 0.95),
        "client.checkpoint_p50_ms": 1000.0
        * percentile(recorder.latencies.get("checkpoint", ()), 0.50),
        "client.restart_s": median(recorder.latencies.get("restart", ())),
        "client.store_bytes_per_para": workload.store_bytes_per_para(),
        "client.failed_share": ratio(
            recorder.failed + mismatches, recorder.attempted
        ),
    }


def sample_counts(recorder: Recorder, setup_times: List[float]) -> Dict[str, int]:
    reads = len(recorder.of_kinds(READ_KINDS))
    return {
        "setup_s": len(setup_times),
        "ops_per_s": recorder.attempted,
        "p50_ms": reads,
        "p90_ms": reads,
        "peak_rss_mb": 1,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> Dict[str, Any]:
    """Set up, warm up, measure and check one workload; returns the detail."""
    workload = workloads.create(name, seed, smoke, os.path.join(OUT_DIR, "tmp"))
    setup_times: List[float] = []
    setup_raw: List[float] = []
    plain, traced = Recorder(), Recorder()
    tracer: Optional[Tracer] = None
    layer: Dict[str, float] = {}
    spans_written = 0
    try:
        for attempt in range(SETUP_REPEATS):
            if attempt:
                workload.teardown()
            gc.collect()
            meter = SpeedMeter()
            phases = workload.setup(meter)
            meter.tick()
            setup_times.append(meter.normalised)
            setup_raw.append(meter.raw)
        position = workload.drive(0, float("inf"), Recorder(), limit=workload.sizes["warmup"])
        gc.collect()
        if not trace:
            workload.drive(position, seconds, plain)
        else:
            # Half the time untraced, half traced, on one system: the
            # difference in throughput is what the wrappers cost.
            position = workload.drive(position, seconds / 2, plain)
            tracer = Tracer()
            before = obs.metrics().snapshot()
            tracer.install(workload.system.db)
            try:
                workload.drive(position, seconds / 2, traced, tracer)
            finally:
                tracer.uninstall(workload.system.db if workload.system else None)
            delta = snapshot_delta(before, obs.metrics().snapshot())
        e2e = end_to_end(plain, setup_times)
        checked, mismatches = workload.check()
        if trace:
            layer = layer_metrics(
                tracer.summary(),
                tracer.durations("net.client_roundtrip"),
                tracer.counts(),
                delta,
                ops=traced.attempted,
                writes=len(traced.of_kinds(WRITE_KINDS)),
                telemetry=workload.telemetry,
            )
            layer["core.index_objects_s"] = phases["index_s"]
            layer["sgml.load_self_ms_per_doc"] = 1000.0 * ratio(
                phases["load_s"], workload.sizes["docs"]
            )
            layer["trace.overhead_share"] = 1.0 - ratio(
                ratio(traced.attempted, traced.wall), e2e["ops_per_s"]
            )
            layer.update(client_metrics(workload, plain, len(mismatches)))
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_written = tracer.write_jsonl(
                os.path.join(OUT_DIR, f"trace-{name}.jsonl")
            )
    finally:
        workload.teardown()
    failed = plain.failed + traced.failed + len(mismatches)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "clients": workload.clients,
        "ops_digest": workload.digest(),
        "ops_generated": len(workload.ops),
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "checked": checked,
        "mismatches": mismatches,
        "errors": plain.errors + traced.errors,
        "measured_s": plain.raw_wall + traced.raw_wall,
        "speed_factor": ratio(plain.wall + traced.wall, plain.raw_wall + traced.raw_wall),
        "ops_by_kind": {
            kind: len(plain.latencies.get(kind, ())) + len(traced.latencies.get(kind, ()))
            for kind in sorted(set(plain.latencies) | set(traced.latencies))
        },
        "setup_times_s": setup_times,
        "setup_wall_s": setup_raw,
        "setup_phases_s": phases,
        "samples": sample_counts(plain, setup_times),
        "end_to_end": e2e,
        "per_layer": layer,
        "spans_written": spans_written,
    }


def result_line(detail: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """The object the driver reads: exactly the metrics the spec declares."""
    declared = spec["per_layer"] if detail["trace"] else spec["end_to_end"]
    values = detail["per_layer"] if detail["trace"] else detail["end_to_end"]
    return {
        "correct": not detail["mismatches"] and not detail["failed"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def print_detail(detail: Dict[str, Any], spec: Dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(
        f"== {detail['workload']} seed={detail['seed']} "
        f"clients={detail['clients']} (closed loop) "
        f"measured {detail['measured_s']:.1f} s at speed {detail['speed_factor']:.2f}, "
        f"ops_digest {detail['ops_digest']}"
    )
    print(f"   ops by kind: {detail['ops_by_kind']}")
    if detail["workload"] == "update_mix":
        print(f"   {WAL_POLICY}")
    for name, value in detail["end_to_end"].items():
        print(f"   {name:<34} {value:>14.4f} {units[name]:<6} n={detail['samples'][name]}")
    for name, value in detail["per_layer"].items():
        print(f"   {name:<34} {value:>14.4f} {units[name]}")
    print(
        f"   oracle: {detail['checked']} comparisons, "
        f"{len(detail['mismatches'])} mismatches; {detail['failed']} failed "
        f"of {detail['attempted']} attempted"
    )
    for note in detail["mismatches"] + detail["errors"]:
        print(f"   !! {note}")


# --------------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# --------------------------------------------------------------------------

def run_child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    detail = None
    # The last line is the driver's result object; the detail line has it all.
    for line in done.stdout.splitlines()[:-1]:
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
        else:
            print(line)
    if detail is None:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{name}: the workload process printed no result")
    detail["exit_code"] = done.returncode
    return detail


def summarize(values: List[float], unit: str) -> Dict[str, Any]:
    row: Dict[str, Any] = {"unit": unit, "values": values, "median": median(values)}
    if len(values) >= 2:
        # The run-to-run spread the bounds are judged by: (Q3 - Q1) / median.
        q1, mid, q3 = statistics.quantiles(values, n=4)
        row.update(q1=q1, q3=q3, spread=ratio(q3 - q1, mid))
    return row


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    names = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result: Dict[str, Any] = {
        "seconds": args.seconds,
        "smoke": args.smoke,
        "seeds": [args.seed + r for r in range(args.repeat)],
        "workloads": {},
    }
    failed = False
    for name in names:
        runs = []
        for seed in result["seeds"]:
            runs.append(run_child(name, seed, args.seconds, 0, args.smoke))
            if args.trace:
                runs.append(run_child(name, seed, args.seconds, 1, args.smoke))
        failed = failed or any(run["exit_code"] for run in runs)
        plain = [run for run in runs if not run["trace"]]
        traced = [run for run in runs if run["trace"]]
        result["workloads"][name] = {
            "ops_digest": {str(run["seed"]): run["ops_digest"] for run in plain},
            "speed_factor": [run["speed_factor"] for run in plain],
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "end_to_end": {
                metric: summarize([run["end_to_end"][metric] for run in plain], units[metric])
                for metric in plain[0]["end_to_end"]
            },
            "per_layer": {
                metric: summarize([run["per_layer"][metric] for run in traced], units[metric])
                for metric in (traced[0]["per_layer"] if traced else ())
            },
        }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "result.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(f"\n== medians over {args.repeat} run(s) per workload; wrote {path}")
    for name, entry in result["workloads"].items():
        share = ratio(entry["failed"], entry["attempted"])
        print(f"{name}: failed_share {share:.6f}")
        for metric, row in entry["end_to_end"].items():
            spread = f"  spread {row['spread']:.3f}" if "spread" in row else ""
            print(f"   {metric:<14} {row['median']:>12.4f} {row['unit']}{spread}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also (or, with --workload, only) report per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, one-second runs")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args, spec)
    detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_detail(detail, spec)
    print(DETAIL_PREFIX + json.dumps(detail))
    line = result_line(detail, spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
