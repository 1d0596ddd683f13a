"""Compare two ``bench/out/result.json`` files: ``compare.py A.json B.json``.

A is the base (the parent commit), B the candidate.  One row per workload
and end-to-end metric: both medians, the ratio B/A, and a verdict from the
bounds in ``BENCHMARK.json``:

``better`` / ``worse``
    B's median is better / worse than A's by more than the bound.
``within-bound``
    The medians differ by no more than the bound.
``unresolved``
    Either side's own run-to-run spread (interquartile range over median)
    is wider than the bound, so this comparison cannot tell.

Exits non-zero on any ``worse``, and when the two files did not run the
same operations (``ops_digest`` differs for a seed both used).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def verdict(base: Dict[str, Any], cand: Dict[str, Any], better: str, bound: float) -> str:
    if max(base.get("spread", 0.0), cand.get("spread", 0.0)) > bound:
        return "unresolved"
    if not base["median"]:
        return "unresolved"
    change = (cand["median"] - base["median"]) / base["median"]
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within-bound"


def digest_conflicts(base: Dict[str, Any], cand: Dict[str, Any]) -> List[str]:
    conflicts = []
    for name, entry in base["workloads"].items():
        other = cand["workloads"].get(name, {}).get("ops_digest", {})
        for seed, digest in entry["ops_digest"].items():
            if seed in other and other[seed] != digest:
                conflicts.append(f"{name} seed {seed}: {digest} vs {other[seed]}")
    return conflicts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    parser.add_argument("--layers", action="store_true",
                        help="also list per-layer medians (no verdicts: they have no bounds)")
    args = parser.parse_args(argv)
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    base, cand = load(args.base), load(args.candidate)
    failed = False

    print(f"{'workload':<12} {'metric':<12} {'A (base)':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    for name, entry in base["workloads"].items():
        other = cand["workloads"].get(name)
        if other is None:
            print(f"{name:<12} missing from {args.candidate}")
            failed = True
            continue
        for metric in spec["end_to_end"]:
            a = entry["end_to_end"][metric["name"]]
            b = other["end_to_end"][metric["name"]]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            failed = failed or outcome == "worse"
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            print(f"{name:<12} {metric['name']:<12} {a['median']:>12.4f} "
                  f"{b['median']:>12.4f} {ratio:>7.3f} {metric['bound']:>6.2f}  "
                  f"{outcome} ({metric['unit']}, {metric['better']} is better)")
        if args.layers:
            for metric, a in entry["per_layer"].items():
                b = other["per_layer"].get(metric)
                if b is not None and (a["median"] or b["median"]):
                    print(f"{name:<12} {metric:<36} {a['median']:>12.4f} "
                          f"{b['median']:>12.4f} {a['unit']}")

    conflicts = digest_conflicts(base, cand)
    for conflict in conflicts:
        print(f"ops_digest differs: {conflict}")
    return 1 if failed or conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
