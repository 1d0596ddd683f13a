"""Overload health signals: one dict that says whether the system is keeping up.

:func:`build_health` condenses the live signals an operator (or, per the
ROADMAP, a remote load balancer) needs into a JSON-encodable report:

* **admission** — current queue depth, capacity, utilization, the
  high-watermark since start (``service.queue.depth_peak``), and the count
  of rejected requests.  A queue near capacity means clients are about to
  see :class:`~repro.errors.ServiceOverloadedError`.
* **merge** — how many sealed segments the size-tiered policy would fold
  right now (backlog: what the next checkpoint folds) and total segment
  count.  A growing backlog means reads are fanning out over ever more
  segments between checkpoints.
* **memtable** — unsealed documents/tokens and an approximate heap
  footprint, per :meth:`MemtableSegment.approx_bytes`.
* **network** — socket-server admission (active/accepted/rejected
  connections), request outcomes, and per-endpoint rolling latency for
  every wire operation.  Informational: a connection
  rejection *is* the backpressure mechanism working, not a failure.
* **latency** — p50/p95/p99/p999 of the most relevant rolling histogram
  plus the *slow ratio*: the fraction of windowed requests above the SLO.
* **storage** — single-file store size (both halves of the coupling),
  dead-space ratio and the un-checkpointed dirty volume.  Dead space
  past both pack thresholds
  (:data:`STORAGE_DEAD_RATIO` and :data:`STORAGE_DEAD_BYTES`) degrades
  the verdict until ``DocumentSystem.pack()`` reclaims it.

The verdict (``ok`` / ``degraded`` / ``overloaded``) is a coarse triage
signal, not a pager: *overloaded* when the queue is nearly full or most
requests bust the SLO, *degraded* when pressure is building (half-full
queue, slow-ratio above 10%, or a large merge backlog).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.obs import runtime

#: Rolling-histogram name health reads request latency from, in order of
#: preference (service-level first; inline-only workloads fall back).
LATENCY_METRICS = ("service.request.total_seconds", "irs.query.seconds")

DEFAULT_SLO_SECONDS = 0.25


def _latency_section(registry, slo_seconds: float) -> Dict[str, Any]:
    snapshot = registry.snapshot().get("rolling", {})
    chosen_name, chosen = None, None
    for preferred in LATENCY_METRICS:
        candidates = {
            name: roll
            for name, roll in snapshot.items()
            if name == preferred or name.startswith(preferred + ".")
        }
        live = {name: r for name, r in candidates.items() if r.get("count")}
        if live:
            # Busiest instrument wins (e.g. the dominant model's latencies).
            chosen_name = max(live, key=lambda name: live[name]["count"])
            chosen = live[chosen_name]
            break
    if chosen is None:
        return {
            "source": None,
            "count": 0,
            "slo_seconds": slo_seconds,
            "slow_ratio": 0.0,
        }
    slow_ratio = registry.rolling(chosen_name).fraction_above(slo_seconds)
    return {
        "source": chosen_name,
        "count": chosen["count"],
        "p50": chosen["p50"],
        "p95": chosen["p95"],
        "p99": chosen["p99"],
        "p999": chosen["p999"],
        "slo_seconds": slo_seconds,
        "slow_ratio": slow_ratio,
    }


def _admission_section(services: Iterable[Any], registry) -> Dict[str, Any]:
    depth = capacity = 0
    for service in services:
        config = getattr(service, "config", None)
        if config is None:
            continue
        capacity += config.max_queue
        queue = getattr(service, "_queue", None)
        if queue is not None:
            depth += queue.qsize()
    snapshot = registry.snapshot()
    gauges = snapshot.get("gauges", {})
    counters = snapshot.get("counters", {})
    return {
        "queue_depth": depth,
        "queue_capacity": capacity,
        "utilization": depth / capacity if capacity else 0.0,
        "depth_peak": gauges.get("service.queue.depth_peak", 0.0),
        "rejected": counters.get("service.requests.rejected", 0),
    }


def _merge_section(engine) -> Dict[str, Any]:
    if engine is None:
        return {"backlog": 0, "segments": 0}
    return {"backlog": engine.merge_backlog(), "segments": engine.total_segments()}


def _memtable_section(engine) -> Dict[str, Any]:
    if engine is None:
        return {"documents": 0, "tokens": 0, "bytes": 0}
    return engine.memtable_info()


#: Rolling-histogram name prefix of the per-endpoint server latencies.
NET_ENDPOINT_PREFIX = "net.request.seconds."


def _network_section(registry, servers: Iterable[Any] = ()) -> Dict[str, Any]:
    """Connection gauges and per-endpoint latency of the socket servers.

    ``servers`` contributes live listener facts (address, connection
    limits); the counters and the per-endpoint rolling percentiles come
    from the metrics registry, so the section stays meaningful even when
    health is built far from the server object (e.g. over the wire).
    """
    snapshot = registry.snapshot()
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    endpoints = {}
    for name, roll in snapshot.get("rolling", {}).items():
        if name.startswith(NET_ENDPOINT_PREFIX) and roll.get("count"):
            endpoints[name[len(NET_ENDPOINT_PREFIX):]] = {
                "count": roll["count"],
                "p50": roll["p50"],
                "p99": roll["p99"],
            }
    return {
        "servers": [server.network_section() for server in servers],
        "connections": {
            "active": int(gauges.get("net.connections.active", 0)),
            "accepted": counters.get("net.connections.accepted", 0),
            "rejected": counters.get("net.connections.rejected", 0),
        },
        "requests": {
            "completed": counters.get("net.requests.completed", 0),
            "failed": counters.get("net.requests.failed", 0),
            "frames_rejected": counters.get("net.frames.rejected", 0),
        },
        "endpoints": endpoints,
    }


#: Dead-space thresholds past which storage flips the verdict to
#: ``degraded`` — the ratio alone is meaningless on tiny stores (a 10 KiB
#: file that is 70% dead needs no pack), so both must hold.
STORAGE_DEAD_RATIO = 0.6
STORAGE_DEAD_BYTES = 1 << 20


def storage_stats(store, engine) -> Optional[Dict[str, Any]]:
    """``store.stats()`` and its ``"dirty"`` estimate (None without a store)."""
    if store is None:
        return None
    stats = dict(store.stats())
    stats["dirty"] = store.dirty_info(engine)
    return stats


def _storage_section(storage: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Durable-store facts: size, dead space, dirty volume since checkpoint.

    ``storage`` comes from ``SingleFileStore.stats()`` plus a ``"dirty"``
    estimate (``dirty_info``); systems without a store report
    ``enabled: False``.  ``needs_pack`` applies the module thresholds so
    operators (and the verdict) share one definition of "too much dead
    space".
    """
    if not storage:
        return {"enabled": False}
    section = dict(storage)
    section["enabled"] = True
    section["needs_pack"] = (
        section.get("dead_ratio", 0.0) >= STORAGE_DEAD_RATIO
        and section.get("dead_bytes", 0) >= STORAGE_DEAD_BYTES
    )
    return section


def _verdict(admission, merge, latency, storage=None) -> str:
    utilization = admission["utilization"]
    slow_ratio = latency["slow_ratio"]
    if utilization >= 0.9 or slow_ratio >= 0.5:
        return "overloaded"
    if utilization >= 0.5 or slow_ratio > 0.1 or merge["backlog"] >= 8:
        return "degraded"
    if storage is not None and storage.get("needs_pack"):
        return "degraded"
    return "ok"


def build_health(
    engine=None,
    services: Iterable[Any] = (),
    registry=None,
    slo_seconds: float = DEFAULT_SLO_SECONDS,
    servers: Iterable[Any] = (),
    storage: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the health report (see module docstring for semantics).

    ``servers`` are :class:`~repro.net.server.DocumentServer` instances;
    their connection admission and per-endpoint latency appear under
    ``"network"``.  The network section is informational —
    connection rejections already *are* the backpressure response, so
    they never flip the verdict on their own.

    ``storage`` is the durable-store stats dict of
    ``DocumentSystem.health`` (store size, dead space, un-checkpointed
    dirty volume).  Unlike the network section it *can* flip the verdict:
    a store past the pack thresholds reports ``degraded``.
    """
    registry = registry or runtime.metrics()
    admission = _admission_section(services, registry)
    merge = _merge_section(engine)
    latency = _latency_section(registry, slo_seconds)
    storage_section = _storage_section(storage)
    return {
        "status": _verdict(admission, merge, latency, storage_section),
        "admission": admission,
        "merge": merge,
        "memtable": _memtable_section(engine),
        "network": _network_section(registry, servers),
        "latency": latency,
        "storage": storage_section,
    }
