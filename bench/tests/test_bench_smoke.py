"""Smoke test of the benchmark harness (not part of the tier-1 suite).

Run with ``PYTHONPATH=src python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from collections import defaultdict

import pytest

from bench import run, trace, workloads

SECONDS = 0.4
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def originals():
    return [
        (owner, attribute, owner.__dict__[attribute])
        for _name, owner, attribute, _after in trace.targets()
    ]


@pytest.fixture(scope="module")
def details(originals):
    """One untraced and one traced smoke run of every workload."""
    return {
        (name, traced): run.run_workload(name, 7, SECONDS, traced, smoke=True)
        for name in workloads.NAMES
        for traced in (False, True)
    }


def test_spec_names_and_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + list(workloads.NAMES):
        assert NAME.match(name) and len(name) <= 64, name


def test_every_declared_metric_is_emitted(spec, details):
    for (name, traced), detail in details.items():
        line = run.result_line(detail, spec)
        declared = spec["per_layer"] if traced else spec["end_to_end"]
        assert set(line["metrics"]) == {m["name"] for m in declared}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, name
        if not traced:
            assert all(entry["value"] > 0 for entry in line["metrics"].values()), name
        json.dumps(line, allow_nan=False)


def test_each_layer_shows_up_where_it_should(details):
    layer = {name: details[(name, True)]["per_layer"] for name in workloads.NAMES}
    assert layer["ranked_cold"]["share.irs"] > 0.5
    assert layer["ranked_cold"]["share.net"] == 0
    assert layer["mixed_vql"]["share.core"] + layer["mixed_vql"]["share.oodb"] > 0.5
    assert layer["remote_hot"]["share.net"] + layer["remote_hot"]["share.service"] > 0.5
    assert layer["remote_hot"]["irs.result_cache_hit_share"] > 0.9
    for metric in ("client.write_p50_ms", "client.checkpoint_p50_ms", "client.restart_s",
                   "store.checkpoint_self_ms", "oodb.wal_fsyncs_per_write"):
        assert layer["update_mix"][metric] > 0, metric


def test_ops_digest_follows_the_seed(tmp_path):
    for name in workloads.NAMES:
        digests = [
            workloads.create(name, seed, True, str(tmp_path)).digest()
            for seed in (3, 3, 4)
        ]
        assert digests[0] == digests[1] != digests[2], name


def test_ops_digest_is_the_same_in_another_process(tmp_path):
    """Nothing in generation may depend on string hashing order."""
    script = (
        "import sys; sys.path.insert(0, {root!r}); from bench import run, workloads; "
        "print([workloads.create(n, 3, True, {tmp!r}).digest() for n in workloads.NAMES])"
    ).format(root=run.ROOT, tmp=str(tmp_path))
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": hashseed},
            capture_output=True, text=True, check=True,
        ).stdout
        for hashseed in ("1", "2")
    }
    assert len(outputs) == 1


def test_self_times_stay_within_the_operation(details):
    for name in workloads.NAMES:
        path = os.path.join(run.OUT_DIR, f"trace-{name}.jsonl")
        wall = {}
        self_sum = defaultdict(float)
        with open(path, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert len(spans) == details[(name, True)]["spans_written"] > 0
        for span in spans:
            if span["op"] is None:
                continue  # server-side threads of remote_hot
            key = (span["thread"], span["op"])
            self_sum[key] += span["self"]
            if span["parent"] is None:
                wall[key] = span["end"] - span["start"]
        assert wall
        for key, total in self_sum.items():
            assert total <= wall[key] + 1e-6, (name, key)


def test_wrappers_are_removed(details, originals):
    for owner, attribute, original in originals:
        assert owner.__dict__[attribute] is original, (owner, attribute)
