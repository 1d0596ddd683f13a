"""Batched IRS query execution: one snapshot, many requests.

The service's throughput win on concurrent IRS traffic comes from here,
not from thread parallelism (scoring is pure Python): a batching window's
requests against the same collection are

* **deduplicated** — each distinct ``(model, query, top_k)`` triple is
  scored once per window, however many clients asked for it;
* **snapshot-shared** — all distinct queries of a group are scored under a
  single read hold of the collection's lock, against one index epoch and
  one :class:`~repro.irs.statistics.StatisticsCache` state, so a group is
  never split across an update;
* **propagation-amortized** — pending deferred updates are propagated once
  per group instead of once per request.

Semantic difference from the classic inline path, by design: the pooled
path does **not** write the COLLECTION object's persistent result buffer
(Section 4.2).  Under concurrency every buffer write would X-lock the
collection object and serialize all readers; each collection's in-process
result memo plus the per-group snapshot provide the equivalent intra- and
inter-query reuse.  ``Session(workers=0)`` (the default, inline mode)
keeps the paper's persistent-buffer semantics exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs.telemetry import (
    COST_FIELDS,
    CostProfile,
    RequestTelemetry,
    collecting,
    sampler,
)
from repro.core import updates
from repro.core.collection import irs_values
from repro.core.context import CouplingContext
from repro.errors import (
    CouplingError,
    QueryError,
    ReproError,
)
from repro.oodb.database import Database
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID
from repro.service.results import ResultSet

_cost_values = attrgetter(*COST_FIELDS)


def map_query_error(exc: BaseException) -> BaseException:
    """Route an arbitrary query-path failure into the ReproError hierarchy.

    :class:`ReproError` subclasses pass through untouched; anything else
    (bare ``KeyError`` / ``ValueError`` / …) is wrapped as
    :class:`QueryError` with the original attached as ``__cause__`` —
    callers of the public API never need bare ``except Exception``.
    """
    if isinstance(exc, ReproError):
        return exc
    wrapped = QueryError(f"query failed: {exc!r}")
    wrapped.__cause__ = exc
    return wrapped


def map_coupling_error(exc: BaseException) -> BaseException:
    """Like :func:`map_query_error` but for indexing/maintenance paths."""
    if isinstance(exc, ReproError):
        return exc
    wrapped = CouplingError(f"coupling operation failed: {exc!r}")
    wrapped.__cause__ = exc
    return wrapped


#: A request's identity within a group: (model, query, top_k).
Key = Tuple[Optional[str], str, Optional[int]]


@dataclass
class GroupOutcome:
    """Per-distinct-query results (or failures) of one executed group."""

    epoch: Optional[int] = None
    #: key -> ranked {OID: value}
    values: Dict[Key, Dict[OID, float]] = field(default_factory=dict)
    #: key -> mapped exception for queries that failed
    errors: Dict[Key, BaseException] = field(default_factory=dict)
    #: key -> the ResultSet built for the first request of
    #: that key; duplicates share its ranked hits list (built once per group).
    built: Dict[Key, ResultSet] = field(default_factory=dict)
    deduplicated: int = 0
    # -- telemetry (populated only while instrumentation is enabled) --------
    #: requests in the group and distinct keys scored, for attribution.
    requested_count: int = 0
    #: key -> how many of the group's requests asked for it.
    riders: Dict[Key, int] = field(default_factory=dict)
    #: per-distinct-query cost, measured around the one scoring pass.
    costs: Optional[Dict[Key, CostProfile]] = None
    #: group-shared cost (a propagation before the snapshot; None when none
    #: ran) — split evenly across ALL requests of the group.
    shared: Optional[CostProfile] = None
    #: key -> one rider's attributed share (see :meth:`telemetry`).
    split: Dict[Key, CostProfile] = field(default_factory=dict)
    #: key -> the finished ``service.query`` span, whose
    #: children hold the ``irs.query`` subtree for that key's scoring pass.
    query_spans: Dict[Key, object] = field(default_factory=dict)

    def group_totals(self) -> Optional[Dict[str, float]]:
        """The unsplit group aggregate: sum of distinct costs plus shared.

        Per-request attributed profiles sum back to exactly this (the
        conservation invariant); riders of a failed key are the one
        exception — their share dies with the error.
        """
        if self.costs is None:
            return None
        profiles = [*self.costs.values(), self.shared or CostProfile()]
        aggregate = dict(zip(COST_FIELDS, map(sum, zip(*map(_cost_values, profiles)))))
        aggregate["requests"] = self.requested_count
        aggregate["distinct"] = len(self.costs)
        aggregate["deduplicated"] = self.deduplicated
        return aggregate

    def result(self, key: Key, db: Database, irs_name: str) -> ResultSet:
        """One request's :class:`ResultSet`, or the error its key raised.

        Ranking and hit construction happen once per distinct key;
        duplicate requests get their own lightweight :class:`ResultSet`
        sharing the same ranked hits list.
        """
        error = self.errors.get(key)
        if error is not None:
            raise error
        model, irs_query, _top_k = key
        built = self.built.get(key)
        if built is None:
            built = self.built[key] = ResultSet.from_values(
                self.values[key], db=db, collection=irs_name, query=irs_query,
                model=model, epoch=self.epoch,
            )
            return built
        return ResultSet(
            built.hits, collection=irs_name, query=irs_query, model=model,
            epoch=self.epoch,
        )

    def telemetry(
        self, key: Key, irs_name: str, totals: Dict[str, float], enqueued: float,
        started: float, finished: float, window_size: int,
    ) -> RequestTelemetry:
        """One rider's telemetry, with its share of the group's cost.

        Conservation by construction: a rider of ``key`` receives the key's
        cost divided by its rider count, plus the shared cost divided by
        the group size; summed over the group's requests the splits rebuild
        ``totals`` exactly.  Riders of one key share one attributed
        profile; a lone rider with nothing shared gets the key's own.
        """
        cost = self.split.get(key)
        if cost is None:
            cost, riders = self.costs[key], self.riders[key]
            if riders > 1 or self.shared is not None:
                cost = CostProfile().merge(cost, 1.0 / riders)
                if self.shared is not None:
                    cost.merge(self.shared, 1.0 / self.requested_count)
            self.split[key] = cost
        model, irs_query, top_k = key
        telemetry = request_telemetry(
            "batched", irs_name, irs_query, model, top_k, self.epoch, cost,
            self.query_spans.get(key), enqueued, started, finished,
        )
        telemetry.window_size = window_size or self.requested_count
        telemetry.group_size = self.requested_count
        telemetry.distinct_queries = len(self.costs)
        telemetry.riders = self.riders[key]
        telemetry.group_totals = totals
        return telemetry


def execute_group(
    context: CouplingContext,
    collection_obj: DBObject,
    requested: List[Key],
) -> GroupOutcome:
    """Execute one collection's batched IRS queries against one snapshot.

    ``requested`` lists each request's ``(model_override, irs_query,
    top_k)``; duplicates are welcome — that is the point.  Failures are
    per query: one malformed expression poisons only its own requests,
    the rest of the group still gets results.
    """
    engine = context.engine
    registry = obs.metrics()
    started = time.perf_counter()
    outcome = GroupOutcome()
    outcome.requested_count = len(requested)
    collect = obs.is_enabled()
    if collect:
        outcome.costs = {}

    with obs.tracer().span(
        "service.group", requests=len(requested)
    ) as span:
        # One propagation per group, before the read snapshot is taken.
        # Shared work: it benefits every request of the group equally, so
        # its cost lands in ``outcome.shared`` (split evenly at attribution).
        outcome.shared = propagate_pending(
            collection_obj, CostProfile() if collect else None
        )

        default_model = collection_obj.get("model")
        irs_name = collection_obj.get("irs_name")
        span.set_attribute("collection", irs_name)

        distinct: List[Key] = []
        for model, irs_query, top_k in requested:
            key = (model or default_model, irs_query, top_k)
            if key not in outcome.riders:
                distinct.append(key)
            outcome.riders[key] = outcome.riders.get(key, 0) + 1
        outcome.deduplicated = len(requested) - len(distinct)
        span.set_attribute("distinct", len(distinct))

        # All distinct queries scored under ONE read hold: a single epoch,
        # a single statistics snapshot, no update in between.  Each pass
        # runs inside its own ``service.query`` span and cost profile —
        # that is the per-key artifact attribution hands to rider requests.
        with engine.reading(irs_name):
            outcome.epoch = engine.collection(irs_name).index.epoch
            for key in distinct:
                model, irs_query, top_k = key
                profile = CostProfile() if collect else None
                query_span = None
                try:
                    with collecting(profile):
                        with obs.tracer().span(
                            "service.query", query=obs.trim(irs_query),
                            model=model or "", riders=outcome.riders[key],
                        ) as query_span:
                            if top_k is not None:
                                query_span.set_attribute("top_k", top_k)
                            outcome.values[key] = irs_values(
                                engine, irs_name, irs_query, model, top_k
                            )[0]
                except BaseException as exc:  # mapped + contained per query
                    outcome.errors[key] = map_query_error(exc)
                if collect:
                    outcome.costs[key] = profile
                if query_span is not None:
                    outcome.query_spans[key] = query_span

    elapsed = time.perf_counter() - started
    registry.rolling("service.batch.group_seconds").observe(elapsed)
    registry.histogram("service.batch.group_size").observe(len(requested))
    registry.counter("service.batch.dedup_saved").inc(outcome.deduplicated)
    return outcome


def propagate_pending(
    collection_obj: DBObject, profile: Optional[CostProfile]
) -> Optional[CostProfile]:
    """Force a pending propagation before scoring (Section 4.6).

    Its cost lands in ``profile`` (None: not collecting); returns
    ``profile`` when a propagation ran, else None.
    """
    if not updates.has_pending(collection_obj):
        return None
    started = time.perf_counter()
    applied = updates.propagate(collection_obj, forced=True)
    if profile is not None:
        profile.propagations += 1
        profile.propagated_updates += applied
        profile.propagation_seconds += time.perf_counter() - started
    return profile


def query_outcome(span) -> str:
    """The ``outcome`` the ``irs.query`` span nested under ``span`` carries.

    :meth:`IRSEngine.query` stamps it: ``cached`` (result memo hit),
    ``pruned`` (block-max path), ``fallback:<reason>``, or ``exhaustive``.
    """
    stack = list(getattr(span, "children", None) or ())
    while stack:
        child = stack.pop()
        if getattr(child, "name", "") == "irs.query":
            return child.attributes.get("outcome", "exhaustive")
        stack.extend(getattr(child, "children", None) or ())
    return "exhaustive"


def request_telemetry(
    mode: str,
    irs_name: str,
    irs_query: str,
    model: Optional[str],
    top_k: Optional[int],
    epoch: Optional[int],
    cost: CostProfile,
    span,
    enqueued: float,
    started: float,
    finished: float,
) -> RequestTelemetry:
    """Package one request's cost, timings and outcome (inline or batched).

    A request whose cost holds no engine query was answered from the
    COLLECTION's persistent result buffer (Section 4.2): ``buffered``.
    """
    telemetry = RequestTelemetry(irs_name, irs_query, model or "", top_k, mode, cost)
    telemetry.epoch = epoch
    telemetry.queue_seconds = started - enqueued
    telemetry.run_seconds = finished - started
    telemetry.total_seconds = finished - enqueued
    telemetry.outcome = query_outcome(span) if cost.queries else "buffered"
    # Tail-based retention: the span tree survives only for slow requests
    # or the head-sampled fraction of healthy traffic.
    telemetry.sampled = sampler().keep(telemetry.total_seconds)
    if telemetry.sampled and span is not None:
        telemetry.trace = span
    return telemetry


def unpack(item: Sequence) -> Tuple[object, str, Optional[str], Optional[int]]:
    """A ``query_batch`` item as ``(collection, irs_query, model, top_k)``."""
    return (*item, None, None)[:4]
