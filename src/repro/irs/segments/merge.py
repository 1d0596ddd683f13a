"""Size-tiered merge policy and the background merge scheduler.

Policy (:func:`select_candidates`): sealed segments are bucketed into size
tiers by ``floor(log_fanout(live_docs))``; once a tier accumulates
``tier_fanout`` segments they are folded into one (oldest tier first, at
most ``max_merge_segments`` per merge).  Independently, a segment whose
tombstone ratio reaches ``tombstone_purge_ratio`` is rewritten alone to
reclaim its dead postings.

Scheduler (:class:`MergeScheduler`): a daemon thread that scans every
segmented collection each ``merge_interval_seconds`` and runs merges within
a per-collection time budget.  It obeys the PR 3 lock ordering contract
(:mod:`repro.sync`) and is *cooperative*:

1. snapshot phase — a brief read-lock hold claims the merge and snapshots
   tombstones (``begin_merge``);
2. build phase — the merged segment is assembled with **no lock held**;
   inputs are immutable, so queries and update propagation proceed
   untouched;
3. commit phase — the splice is attempted with a *non-blocking* write
   acquire first, yielding to foreground writers, then falls back to a
   blocking acquire (the splice itself is O(live docs of the merged
   segment) dict updates, far below any query).

The scheduler never holds a database lock, so taking a collection lock
from its thread cannot create a cross-system cycle.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from typing import List, Optional

from repro import obs
from repro.errors import UnknownCollectionError
from repro.irs.segments.manager import SegmentManager
from repro.irs.segments.segment import SealedSegment

logger = logging.getLogger(__name__)


def select_candidates(manager: SegmentManager) -> List[SealedSegment]:
    """Pick the next set of sealed segments to fold (empty when none)."""
    config = manager.config
    sealed = manager.sealed_segments()
    if not sealed:
        return []
    tiers: dict = {}
    for segment in sealed:
        live = max(1, segment.live_document_count)
        tier = int(math.log(live, config.tier_fanout))
        tiers.setdefault(tier, []).append(segment)
    for tier in sorted(tiers):
        group = tiers[tier]
        if len(group) >= config.tier_fanout:
            return group[: config.max_merge_segments]
    for segment in sealed:
        if (
            segment.dead_documents
            and segment.tombstone_ratio >= config.tombstone_purge_ratio
        ):
            return [segment]
    return []


class MergeScheduler:
    """Background size-tiered merging across an engine's collections."""

    def __init__(self, engine, interval: Optional[float] = None) -> None:
        self._engine = engine
        self._interval = (
            interval
            if interval is not None
            else engine.segment_config.merge_interval_seconds
        )
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="irs-merge-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.run_once()
            except Exception:  # pragma: no cover - defensive: keep the daemon alive
                logger.exception("background merge pass failed")
            self._stop.wait(self._interval)

    # -- one pass ----------------------------------------------------------

    def run_once(self) -> int:
        """Scan all collections and merge within budget; returns #merges."""
        merges = 0
        for name in self._engine.collection_names():
            if self._stop.is_set():
                break
            merges += self._merge_collection(name)
        return merges

    def _merge_collection(self, name: str) -> int:
        try:
            collection = self._engine.collection(name)
        except UnknownCollectionError:
            return 0
        manager = collection.segments
        merges = 0
        deadline = time.monotonic() + manager.config.merge_budget_seconds
        while not self._stop.is_set():
            candidates = select_candidates(manager)
            if not candidates:
                break
            if not self._merge_once(name, manager, candidates):
                break
            merges += 1
            if time.monotonic() >= deadline:
                break
        return merges

    def _merge_once(
        self, name: str, manager: SegmentManager, candidates: List[SealedSegment]
    ) -> bool:
        rwlock = self._engine.rwlock(name)
        with rwlock.reading():
            plan = manager.begin_merge(candidates)
        if plan is None:
            return False
        started = time.perf_counter()
        try:
            with obs.tracer().span(
                "irs.segments.merge", collection=name, inputs=len(plan.segments)
            ) as span:
                merged = plan.build()
                span.set_attribute("documents", merged.live_document_count)
                span.set_attribute("representation", "compact")
                span.set_attribute("postings_bytes", merged.postings_bytes())
                self._commit(rwlock, manager, plan, merged)
        except BaseException:
            manager.abort_merge(plan)
            raise
        elapsed = time.perf_counter() - started
        obs.metrics().histogram("irs.segments.merge_seconds").observe(elapsed)
        obs.slow_log().record(
            "merge", f"segments:{name}", elapsed, collection=name,
            inputs=len(plan.segments),
        )
        return True

    def _commit(self, rwlock, manager, plan, merged) -> None:
        """Cooperative commit: poll non-blocking first, then block.

        A busy foreground writer (propagation window) always wins the poll;
        the blocking fallback bounds scheduler latency once traffic pauses.
        """
        poll_deadline = time.monotonic() + 0.25
        while time.monotonic() < poll_deadline and not self._stop.is_set():
            if rwlock.acquire_write_nowait():
                try:
                    manager.commit_merge(plan, merged)
                finally:
                    rwlock.release_write()
                return
            obs.metrics().counter("irs.segments.merge_commit_yields").inc()
            time.sleep(0.001)
        with rwlock.writing():
            manager.commit_merge(plan, merged)
