"""Request-level telemetry: cost profiles, attribution, and trace retention.

The batching layer (PR 3) deliberately blurs request identity: a window of
requests against one collection shares a single propagation, a single
read-lock snapshot, and one scoring pass per *distinct* ``(model, query,
top_k)`` key.  That is what makes it fast — and what makes a single
request impossible to debug, because no artifact says what *this* request
cost.  This module restores identity without unsharing the work:

* :class:`CostProfile` — a flat bundle of cost counters (blocks decoded /
  skipped, candidates scored, cache hits, segments touched, propagation
  work).  Fields are floats so shared work can be split fractionally.
* :func:`collecting` / :func:`active_profile` — a thread-local slot the
  engine and scorer write into while a query executes.  One ``getattr``
  when idle; no locks (collection is per worker thread).
* :class:`RequestTelemetry` — the per-request artifact surfaced on
  ``ResultSet.telemetry``: identity, timings, batch context (window /
  group / rider counts), outcome, the attributed :class:`CostProfile`,
  and (when retained) the full span tree.
* :class:`TraceSampler` — tail-based retention.  Full span trees are kept
  for slow or errored requests; healthy fast traffic is head-sampled
  (every Nth request) so trace memory stays bounded under service load.

**Conservation.**  Attribution is exact by construction: a request that
rode key *K* in a group of *G* requests receives ``cost[K] / riders[K] +
shared / G``.  Summing over the group's requests rebuilds ``sum(cost) +
shared`` — no double counting, no loss (verified by the conservation test
in ``tests/service/test_telemetry.py``).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.obs.runtime import slow_log

#: Counter fields of a CostProfile, in presentation order.  Floats, because
#: shared batch work is attributed fractionally to rider requests.
COST_FIELDS = (
    "queries",
    "result_cache_hits",
    "result_cache_misses",
    "stats_cache_hits",
    "stats_cache_misses",
    "blocks_decoded",
    "blocks_skipped",
    "early_terminations",
    "candidates_scored",
    "pruned_queries",
    "fallback_queries",
    "segments_touched",
    "propagations",
    "propagated_updates",
    "propagation_seconds",
    "scoring_seconds",
)


class CostProfile:
    """What a request (or a shared batch stage) cost, as flat counters."""

    __slots__ = COST_FIELDS

    def __init__(self, **initial: float) -> None:
        for field in COST_FIELDS:
            setattr(self, field, initial.get(field, 0.0))

    def merge(self, other: "CostProfile", scale: float = 1.0) -> "CostProfile":
        """Add ``other`` (optionally scaled — for split shared work)."""
        for field in COST_FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field) * scale)
        return self

    def as_dict(self) -> Dict[str, float]:
        return {field: getattr(self, field) for field in COST_FIELDS}

    def __repr__(self) -> str:
        nonzero = {k: round(v, 6) for k, v in self.as_dict().items() if v}
        return f"<CostProfile {nonzero}>"


# -- thread-local collection slot -------------------------------------------

_local = threading.local()


def active_profile() -> Optional[CostProfile]:
    """The profile the current thread is collecting into (None when idle)."""
    return getattr(_local, "profile", None)


@contextmanager
def collecting(profile: Optional[CostProfile]) -> Iterator[Optional[CostProfile]]:
    """Collect engine/scorer costs into ``profile`` on this thread.

    ``None`` is a no-op (the disabled path costs one ``if``).  Nesting
    restores the outer profile on exit, so an inner instrumented call
    (e.g. a mixed query issuing a sub-query) cannot leak attribution.
    """
    if profile is None:
        yield None
        return
    previous = getattr(_local, "profile", None)
    _local.profile = profile
    try:
        yield profile
    finally:
        _local.profile = previous


# -- the per-request artifact ------------------------------------------------

_request_ids = itertools.count(1)


class RequestTelemetry:
    """Everything one request can report about itself.

    Attached to ``ResultSet.telemetry`` by the session/service layer.
    ``group_totals`` carries the *unsplit* group aggregate (same dict object
    shared by every rider of the window group) so callers can verify
    conservation or compute their share of the batch.
    """

    __slots__ = (
        "request_id",
        "collection",
        "query",
        "model",
        "top_k",
        "epoch",
        "mode",
        "outcome",
        "cost",
        "queue_seconds",
        "run_seconds",
        "total_seconds",
        "window_size",
        "group_size",
        "distinct_queries",
        "riders",
        "group_totals",
        "trace",
        "sampled",
    )

    def __init__(
        self,
        collection: str = "",
        query: str = "",
        model: str = "",
        top_k: Optional[int] = None,
        mode: str = "inline",
        cost: Optional[CostProfile] = None,
    ) -> None:
        self.request_id = next(_request_ids)
        self.collection = collection
        self.query = query
        self.model = model
        self.top_k = top_k
        self.epoch: Optional[int] = None
        self.mode = mode  # "inline" | "batched"
        self.outcome = "unknown"  # cached | pruned | fallback:<reason> | exhaustive
        self.cost = cost if cost is not None else CostProfile()
        self.queue_seconds = 0.0
        self.run_seconds = 0.0
        self.total_seconds = 0.0
        self.window_size = 1
        self.group_size = 1
        self.distinct_queries = 1
        self.riders = 1
        self.group_totals: Optional[Dict[str, float]] = None
        self.trace = None  # a Span tree when retained, else None
        self.sampled = False

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "RequestTelemetry":
        """Rebuild telemetry from its :meth:`as_dict` form.

        The inverse used by the network client: telemetry rides on every
        wire response as JSON and comes back as a real artifact on
        ``ResultSet.telemetry``.  ``request_id`` is the *server's* id for
        the request; a retained trace stays in its JSON record form (span
        objects do not round-trip, their records do).  Absent fields keep
        the constructor's defaults.
        """
        cost = record.get("cost") or {}
        telemetry = cls(cost=CostProfile(**{f: cost[f] for f in COST_FIELDS if f in cost}))
        for name in _RECORD_FIELDS:
            if name in record:
                setattr(telemetry, name, record[name])
        if record.get("group_totals") is not None:
            telemetry.group_totals = dict(record["group_totals"])
        telemetry.trace = record.get("trace")
        return telemetry

    def as_dict(self) -> Dict[str, Any]:
        """JSON-encodable view (trace serialized via ``Span.to_record``)."""
        record: Dict[str, Any] = {name: getattr(self, name) for name in _RECORD_FIELDS}
        record["cost"] = self.cost.as_dict()
        if self.group_totals is not None:
            record["group_totals"] = dict(self.group_totals)
        if self.trace is not None:
            record["trace"] = self.trace.to_record()
        return record

    def __repr__(self) -> str:
        return (
            f"<RequestTelemetry #{self.request_id} {self.mode} {self.outcome} "
            f"total={self.total_seconds * 1e3:.2f}ms riders={self.riders}>"
        )


#: The plain fields of a :meth:`RequestTelemetry.as_dict` record, in order.
_RECORD_FIELDS = tuple(
    name for name in RequestTelemetry.__slots__
    if name not in ("cost", "group_totals", "trace")
)


# -- tail-based trace retention ----------------------------------------------


class TraceSampler:
    """Decide which requests keep their full span tree.

    Slow (``seconds >= slow_seconds``) and errored requests always keep the
    tree — those are the ones worth debugging.  Healthy traffic is
    head-sampled: the first of every ``head_every`` decisions keeps its
    tree, the rest drop it.  ``head_every=0`` disables head sampling;
    ``head_every=1`` keeps everything.  ``slow_seconds=None`` tracks the
    slow-query-log threshold, so one knob governs both artifacts.
    """

    def __init__(self, head_every: int = 16, slow_seconds: Optional[float] = None):
        self.head_every = head_every
        self.slow_seconds = slow_seconds
        self._decisions = itertools.count()

    def keep(self, seconds: float, error: bool = False) -> bool:
        if error:
            return True
        slow = self.slow_seconds
        if slow is None:
            slow = slow_log().threshold
        if seconds >= slow:
            return True
        if self.head_every <= 0:
            return False
        return next(self._decisions) % self.head_every == 0


_sampler = TraceSampler()


def sampler() -> TraceSampler:
    """The process-wide trace retention policy."""
    return _sampler


def configure_sampling(
    head_every: Optional[int] = None, slow_seconds: Optional[float] = None
) -> TraceSampler:
    """Adjust trace retention; ``slow_seconds=None`` keeps the current value."""
    if head_every is not None:
        _sampler.head_every = head_every
    if slow_seconds is not None:
        _sampler.slow_seconds = slow_seconds
    return _sampler


def sampling_config() -> Dict[str, Any]:
    """The sampler's current knobs (for ``obs.config_snapshot``)."""
    return {
        "head_every": _sampler.head_every,
        "slow_seconds": _sampler.slow_seconds,
    }
