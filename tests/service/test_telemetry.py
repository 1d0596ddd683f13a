"""Request-level telemetry through the batching layer.

The load-bearing invariant is *conservation*: per-request cost profiles
attributed out of a batched window must sum back to the batch-level
totals, field by field.  Nothing the batch did may be double-billed or
lost, no matter how queries deduplicate across riders.
"""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.obs.telemetry import COST_FIELDS, configure_sampling, sampler
from repro.service.config import ServiceConfig
from repro.service.executor import DocumentService

QUERIES = ["WWW", "WWW", "NII", "telnet", "NII", "WWW", "gopher", "archie"]


@pytest.fixture
def fresh_obs():
    """Clean instrumentation state around each test."""
    obs.enable()
    obs.tracer().clear()
    obs.metrics().reset()
    obs.slow_log().clear()
    yield
    sampler().head_every = 16  # restore default sampler knobs
    sampler().slow_seconds = None
    obs.tracer().clear()
    obs.metrics().reset()
    obs.slow_log().clear()


def one_window(system, collection, queries=QUERIES):
    """Run ``queries`` through exactly one batching window of one group."""
    config = ServiceConfig(workers=2, max_batch_per_worker=4, auto_start=False)
    with DocumentService(system.session.db, config) as service:
        futures = [
            service.submit_query(collection, query) for query in queries
        ]
        service.start()
        return [future.result(timeout=10.0) for future in futures]


class TestConservation:
    def test_per_request_costs_sum_to_group_totals(
        self, system, collection, fresh_obs
    ):
        results = one_window(system, collection)
        telemetries = [r.telemetry for r in results]
        assert all(t is not None for t in telemetries)

        # All eight requests rode the same group; every rider carries the
        # same group_totals aggregate.
        totals = telemetries[0].group_totals
        assert totals is not None
        assert totals["requests"] == len(QUERIES)
        assert totals["distinct"] == len(set(QUERIES))
        assert totals["deduplicated"] == len(QUERIES) - len(set(QUERIES))

        for field in COST_FIELDS:
            attributed = sum(getattr(t.cost, field) for t in telemetries)
            assert math.isclose(
                attributed, totals[field], rel_tol=1e-9, abs_tol=1e-12
            ), f"{field}: attributed {attributed} != batch total {totals[field]}"

        # The deduplicated query was scored once, so the group executed
        # exactly one engine query per distinct text.
        assert totals["queries"] == len(set(QUERIES))

    def test_riders_split_their_key_evenly(self, system, collection, fresh_obs):
        results = one_window(system, collection)
        www = [r.telemetry for r, q in zip(results, QUERIES) if q == "WWW"]
        assert all(t.riders == 3 for t in www)
        for telemetry in www:
            assert math.isclose(telemetry.cost.queries, 1.0 / 3.0)
        singleton = next(
            r.telemetry for r, q in zip(results, QUERIES) if q == "archie"
        )
        assert singleton.riders == 1
        assert math.isclose(singleton.cost.queries, 1.0)

    def test_batched_telemetry_shape(self, system, collection, fresh_obs):
        results = one_window(system, collection)
        telemetry = results[0].telemetry
        assert telemetry.mode == "batched"
        assert telemetry.window_size == len(QUERIES)
        assert telemetry.group_size == len(QUERIES)
        assert telemetry.distinct_queries == len(set(QUERIES))
        assert telemetry.collection == "collPara"
        assert telemetry.query == "WWW"
        assert telemetry.total_seconds >= telemetry.run_seconds >= 0.0
        assert telemetry.queue_seconds >= 0.0
        assert telemetry.outcome in {"exhaustive", "pruned", "cached"}
        record = telemetry.as_dict()
        assert record["cost"]["queries"] == pytest.approx(1.0 / 3.0)

    def test_second_window_reports_cached_outcome(
        self, system, collection, fresh_obs
    ):
        one_window(system, collection, queries=["WWW"])
        (result,) = one_window(system, collection, queries=["WWW"])
        assert result.telemetry.outcome == "cached"
        # A cached hit bills no fresh scoring work.
        assert result.telemetry.cost.candidates_scored == 0.0
        assert result.telemetry.cost.result_cache_hits == 1.0


class TestInlineTelemetry:
    def test_inline_query_gets_full_cost(self, system, collection, fresh_obs):
        result = system.session.query(collection, "telnet")
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.mode == "inline"
        assert telemetry.riders == 1
        # The classic inline path answers from the persistent buffer; the
        # engine is only consulted to (re)build it.
        assert telemetry.outcome in {"exhaustive", "pruned", "buffered"}
        assert telemetry.queue_seconds == 0.0
        assert telemetry.total_seconds == telemetry.run_seconds

    def test_repeat_inline_query_hits_persistent_buffer(
        self, system, collection, fresh_obs
    ):
        system.session.query(collection, "telnet")
        repeat = system.session.query(collection, "telnet")
        assert repeat.telemetry.outcome in {"buffered", "cached"}

    def test_top_k_inline_reports_pruning_costs(
        self, system, collection, fresh_obs
    ):
        result = system.session.query(collection, "NII", top_k=2)
        telemetry = result.telemetry
        assert telemetry.top_k == 2
        assert telemetry.cost.queries == 1.0
        if telemetry.outcome == "pruned":
            assert telemetry.cost.blocks_decoded >= 1.0


class TestSampling:
    def test_head_every_one_keeps_every_trace(self, system, collection, fresh_obs):
        configure_sampling(head_every=1, slow_seconds=999.0)
        result = system.session.query(collection, "WWW")
        assert result.telemetry.sampled
        assert result.telemetry.trace is not None
        assert result.telemetry.as_dict()["trace"]["name"] == "service.request"

    def test_head_every_zero_drops_fast_traces(
        self, system, collection, fresh_obs
    ):
        configure_sampling(head_every=0, slow_seconds=999.0)
        result = system.session.query(collection, "WWW")
        assert not result.telemetry.sampled
        assert result.telemetry.trace is None
        # The cost profile survives sampling: only the span tree is shed.
        assert result.telemetry.cost.queries >= 0.0

    def test_slow_threshold_zero_keeps_everything(
        self, system, collection, fresh_obs
    ):
        configure_sampling(head_every=0, slow_seconds=0.0)
        result = system.session.query(collection, "WWW")
        assert result.telemetry.sampled


class TestDisabled:
    def test_disabled_obs_attaches_no_telemetry(self, system, collection):
        obs.disable()
        try:
            inline = system.session.query(collection, "WWW")
            assert inline.telemetry is None
            (batched,) = one_window(system, collection, queries=["WWW"])
            assert batched.telemetry is None
        finally:
            obs.enable()


class TestHealth:
    def test_health_shape_and_ok_status(self, system, collection, fresh_obs):
        one_window(system, collection)
        health = system.health()
        assert health["status"] in {"ok", "degraded", "overloaded"}
        assert set(health) == {
            "status", "admission", "merge", "memtable", "network", "latency",
            "storage",
        }
        network = health["network"]
        assert network["servers"] == []  # no socket server started here
        assert network["connections"]["active"] == 0
        admission = health["admission"]
        assert admission["depth_peak"] >= 0
        assert 0.0 <= admission["utilization"] <= 1.0
        assert health["merge"]["segments"] >= 1
        assert health["memtable"]["bytes"] >= 0
        latency = health["latency"]
        assert latency["count"] >= len(QUERIES)
        assert latency["p50"] <= latency["p999"]
        assert 0.0 <= latency["slow_ratio"] <= 1.0

    def test_health_respects_slo_override(self, system, collection, fresh_obs):
        one_window(system, collection)
        generous = system.health(slo_seconds=1000.0)
        assert generous["latency"]["slo_seconds"] == 1000.0
        assert generous["latency"]["slow_ratio"] == 0.0
        # An impossible SLO marks every request slow and flags overload.
        harsh = system.health(slo_seconds=1e-12)
        assert harsh["latency"]["slow_ratio"] == 1.0
        assert harsh["status"] == "overloaded"


class TestSlowLogEnrichment:
    def test_slow_entries_carry_topk_outcome_and_segments(
        self, system, collection, fresh_obs
    ):
        previous = obs.slow_log().threshold
        try:
            obs.configure(slow_query_seconds=0.0)  # everything is "slow"
            system.session.query(collection, "NII", top_k=2)
            entries = obs.slow_log().entries()
            assert entries
            info = entries[-1].info
            assert info["collection"] == "collPara"
            assert info["top_k"] == 2
            assert info["segments"] >= 1
            assert "outcome" in info
        finally:
            obs.configure(slow_query_seconds=previous)


class TestRequestMetrics:
    def test_latency_metrics_are_rolling(self, system, collection, fresh_obs):
        one_window(system, collection)
        rolling = obs.metrics().snapshot()["rolling"]
        for name in (
            "service.request.queue_seconds",
            "service.request.run_seconds",
            "service.request.total_seconds",
            "service.batch.group_seconds",
        ):
            assert name in rolling, name
        assert rolling["service.request.total_seconds"]["count"] == len(QUERIES)
        assert rolling["service.batch.group_seconds"]["count"] == 1
        assert any(name.startswith("irs.query.seconds.") for name in rolling)
