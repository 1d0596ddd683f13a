"""Per-layer metrics of one traced phase.

Turns the tracer's span table, the counts its hooks took, and the change in
``obs.metrics().snapshot()`` over the traced phase into the ``per_layer``
metrics ``BENCHMARK.json`` declares.  Names are ``<module>.<metric>``; a
metric whose layer did no work in a workload reads 0 there.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from bench.stats import median, percentile
from bench.trace import LAYERS, layer_shares


def snapshot_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Counter increases and histogram ``.sum`` / ``.count`` increases.

    Gauges are taken from ``after`` as they are.  Rolling histograms forget
    samples after a minute, so they are not differenced.
    """
    delta: Dict[str, float] = {}
    for name, value in after["counters"].items():
        delta[name] = value - before["counters"].get(name, 0)
    for name, hist in after["histograms"].items():
        old = before["histograms"].get(name, {})
        delta[name + ".sum"] = hist["sum"] - old.get("sum", 0.0)
        delta[name + ".count"] = hist["count"] - old.get("count", 0)
    delta.update(after["gauges"])
    return delta


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    summary: Dict[str, Dict[str, float]],
    roundtrips: Sequence[float],
    counts: Dict[str, float],
    delta: Dict[str, float],
    ops: int,
    writes: int,
    telemetry: List[Any],
) -> Dict[str, float]:
    """The trace-derived metrics; the runner adds set-up and client ones."""

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0)

    def self_ms(*names: str) -> float:
        return 1000.0 * sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    def mean_total_ms(name: str) -> float:
        return 1000.0 * ratio(summary.get(name, {}).get("total_s", 0.0), calls(name))

    def d(name: str) -> float:
        return delta.get(name, 0)

    executed = d("irs.query.executed")
    decoded, skipped = d("irs.postings.blocks_decoded"), d("irs.postings.blocks_skipped")
    cache_hits, cache_misses = d("irs.result_cache.hits"), d("irs.result_cache.misses")
    buffer_hits, buffer_misses = d("coupling.buffer.hits"), d("coupling.buffer.misses")
    appended, reused = d("store.records.appended"), d("store.records.reused")
    irs_writes = ("irs.index_document", "irs.replace_document", "irs.remove_document")

    metrics = {
        "irs.query_calls": calls("irs.query"),
        "irs.query_self_ms_per_op": ratio(self_ms("irs.query"), ops),
        "irs.topk_pruned_share": ratio(d("irs.topk.pruned_queries"), executed),
        "irs.topk_fallback_share": ratio(d("irs.topk.fallbacks"), executed),
        "irs.blocks_decoded_per_query": ratio(decoded, executed),
        "irs.blocks_skipped_share": ratio(skipped, decoded + skipped),
        "irs.result_cache_hit_share": ratio(cache_hits, cache_hits + cache_misses),
        "irs.write_self_ms_per_write": ratio(self_ms(*irs_writes), writes),
        "irs.segments_sealed": d("irs.segments.sealed"),
        "irs.segment_merges": d("irs.segments.merges"),
        "irs.merge_busy_ms": 1000.0 * d("irs.segments.merge_seconds.sum"),
        "core.get_irs_result_self_ms_per_op": ratio(self_ms("core.get_irs_result"), ops),
        "core.find_irs_value_calls_per_op": ratio(calls("core.find_irs_value"), ops),
        "core.find_irs_value_self_ms_per_op": ratio(self_ms("core.find_irs_value"), ops),
        "core.buffer_lookup_self_ms_per_op": ratio(self_ms("core.buffer_lookup"), ops),
        "core.buffer_hit_share": ratio(buffer_hits, buffer_hits + buffer_misses),
        "core.derive_calls_per_op": ratio(calls("core.derive"), ops),
        "core.derive_self_ms_per_op": ratio(self_ms("core.derive"), ops),
        "core.propagate_self_ms_per_call": ratio(
            self_ms("core.propagate"), calls("core.propagate")
        ),
        "core.updates_propagated": d("coupling.updates.propagated"),
        "core.forced_propagations": d("coupling.updates.forced_propagations"),
        "oodb.query_self_ms_per_op": ratio(self_ms("oodb.query"), ops),
        "oodb.tuples_examined_per_row": ratio(
            counts.get("oodb.tuples_examined", 0), counts.get("oodb.rows_produced", 0)
        ),
        "oodb.wal_appends_per_write": ratio(d("oodb.wal.appends"), writes),
        "oodb.wal_fsyncs_per_write": ratio(d("oodb.wal.fsyncs"), writes),
        "oodb.wal_fsync_ms_per_write": ratio(
            1000.0 * d("oodb.wal.fsync_seconds.sum"), writes
        ),
        "oodb.commit_self_ms_per_write": ratio(self_ms("oodb.commit"), writes),
        "oodb.lock_wait_ms": 1000.0 * d("oodb.lock.wait_seconds.sum"),
        "oodb.recovery_s": mean_total_ms("oodb.recovery") / 1000.0,
        "sgml.update_content_self_ms": ratio(
            self_ms("sgml.update_content"), calls("sgml.update_content")
        ),
        "service.queue_wait_ms_p50": 1000.0 * median(
            [t.queue_seconds for t in telemetry]
        ),
        "service.run_ms_p50": 1000.0 * median([t.run_seconds for t in telemetry]),
        "service.group_size_mean": ratio(
            sum(t.group_size for t in telemetry), len(telemetry)
        ),
        "service.dedup_saved_share": ratio(
            d("service.batch.dedup_saved"), d("service.requests.submitted")
        ),
        "service.rejected": d("service.requests.rejected"),
        "service.retries": d("service.retries"),
        "net.encode_self_ms_per_op": ratio(
            self_ms("net.encode_frame", "net.encode_value"), ops
        ),
        "net.decode_self_ms_per_op": ratio(self_ms("net.decode_payload"), ops),
        "net.bytes_per_response": ratio(
            counts.get("net.response_bytes", 0), counts.get("net.response_frames", 0)
        ),
        "net.server_handle_self_ms_per_op": ratio(self_ms("net.server_handle"), ops),
        "net.client_roundtrip_ms_p50": 1000.0 * percentile(roundtrips, 0.5),
        "net.requests_failed": d("net.requests.failed"),
        "store.checkpoint_self_ms": ratio(
            self_ms("store.checkpoint"), calls("store.checkpoint")
        ),
        "store.bytes_appended_per_checkpoint": ratio(
            d("store.bytes.appended"), d("store.checkpoints")
        ),
        "store.records_reused_share": ratio(reused, appended + reused),
        "store.dead_share": ratio(d("store.bytes.dead"), d("store.bytes.total")),
        "store.load_engine_ms": mean_total_ms("store.load_engine"),
        "store.materialize_ms": mean_total_ms("store.materialize"),
    }
    shares = layer_shares(summary)
    for layer in LAYERS:
        metrics[f"share.{layer}"] = shares[layer]
    return metrics
