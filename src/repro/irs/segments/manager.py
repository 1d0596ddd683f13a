"""SegmentManager: lifecycle of a collection's segment stack.

One manager per collection owns:

* the mutable :class:`~repro.irs.segments.segment.MemtableSegment` plus the
  ordered list of immutable :class:`SealedSegment`\\ s;
* a *locator* (doc id -> owning segment) so point lookups and tombstoning
  never scan segments;
* shared live-document bookkeeping (``doc_lengths``, running token count)
  that the collection's :class:`~repro.irs.view.UnionIndexView` serves as
  O(1) global statistics — the manager is that view's owner;
* two version counters with distinct invalidation semantics:

  - :attr:`epoch` — bumped by every *content* change (add/remove).  This is
    the counter the StatisticsCache, each collection's result memo and the
    epoch-tagged ResultSets key on.
  - :attr:`structure` — bumped by content-*preserving* reorganizations
    (sealing the memtable, committing a merge).  Scores are unchanged
    across a structure bump, so caches keyed on the epoch stay warm; only
    the view's per-term merged postings (keyed on ``(epoch, structure)``)
    are refreshed.

Upkeep is synchronous (paper Section 4.6: the IRS is maintained at
explicit points).  :meth:`SegmentManager.seal_and_fold` seals the
memtable and folds what the size-tiered policy (:func:`select_candidates`)
picks; the single-file store runs it at every checkpoint, and
:meth:`SegmentManager.compact` folds everything on demand.

Locking contract: mutators (``add_document``, ``add_documents``,
``remove_document``, ``seal``, ``fold``, ``seal_and_fold``, ``compact``)
require the collection's write lock.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.irs.segments.segment import (
    MemtableSegment,
    SealedSegment,
    SegmentConfig,
)

Segment = Union[MemtableSegment, SealedSegment]


def select_candidates(manager: "SegmentManager") -> List[SealedSegment]:
    """Pick the next set of sealed segments to fold (empty when none).

    Size-tiered: sealed segments are bucketed by
    ``floor(log_fanout(live_docs))``; once a tier holds ``tier_fanout``
    segments they are folded into one (smallest tier first, at most
    ``max_merge_segments`` per fold).  Otherwise a segment whose tombstone
    ratio reaches ``tombstone_purge_ratio`` is rewritten alone.
    """
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


class SegmentManager:
    """Owns one collection's memtable and sealed segments."""

    def __init__(self, name: str, config: Optional[SegmentConfig] = None) -> None:
        self.name = name
        self.config = config or SegmentConfig()
        self._memtable = MemtableSegment(0)
        self._sealed: List[SealedSegment] = []
        self._next_segment_id = 1
        self._locator: Dict[int, Segment] = {}
        #: Live documents only; served through :attr:`doc_lengths`.
        self._doc_lengths: Dict[int, int] = {}
        self._token_count = 0
        self._epoch = 0
        self._structure = 0
        self._batch_depth = 0
        self._batch_dirty = False
        self.seals = 0
        self.merges = 0
        self.tombstones_purged = 0

    # -- versions ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Content generation: the cache-invalidation counter."""
        return self._epoch

    @property
    def structure(self) -> int:
        """Reorganization generation (seal/merge); content-preserving."""
        return self._structure

    @property
    def index_version(self) -> tuple:
        """``(epoch, structure)``: moves whenever postings move between or
        within sources, so it keys everything derived from the source list."""
        return (self._epoch, self._structure)

    def _bump_epoch(self) -> None:
        if self._batch_depth:
            self._batch_dirty = True
        else:
            self._epoch += 1

    @contextmanager
    def batched_epoch(self) -> Iterator[None]:
        """Coalesce the epoch bumps of a write batch into one.

        Used by the engine's ``bulk_mutating`` so a propagation window of N
        pending updates invalidates downstream caches once, not N times.
        Requires the collection write lock (like every mutator).
        """
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self._batch_dirty:
                self._batch_dirty = False
                self._epoch += 1

    # -- write path (collection write lock held) --------------------------

    def add_document(self, doc_id: int, terms: List[str]) -> None:
        if doc_id in self._doc_lengths:
            raise ValueError(f"document {doc_id} already indexed")
        self._memtable.add_document(doc_id, terms)
        self._locator[doc_id] = self._memtable
        self._doc_lengths[doc_id] = len(terms)
        self._token_count += len(terms)
        self._bump_epoch()
        self._maybe_seal()

    def remove_document(self, doc_id: int) -> None:
        segment = self._locator.pop(doc_id, None)
        if segment is None:
            raise KeyError(doc_id)
        if segment is self._memtable:
            segment.remove_document(doc_id)
        else:
            segment.tombstone(doc_id)
            obs.metrics().counter("irs.segments.tombstones").inc()
        self._token_count -= self._doc_lengths.pop(doc_id)
        self._bump_epoch()

    def add_documents(self, batch: Iterable[Tuple[int, List[str]]]) -> None:
        """Index new ``(doc_id, terms)``, doc ids ascending, cut exactly
        where :meth:`add_document` would seal: the batch first fills a
        memtable that holds documents, then every full chunk becomes a
        sealed segment at once (:meth:`SealedSegment.from_documents`), and
        the remainder goes to the memtable.  The batch is read lazily."""
        chunk: List[Tuple[int, List[str]]] = []
        tokens = 0
        with self.batched_epoch():
            for doc_id, terms in batch:
                if self._memtable.document_count:
                    self.add_document(doc_id, terms)
                    continue
                if doc_id in self._doc_lengths or (chunk and doc_id <= chunk[-1][0]):
                    raise ValueError(f"document {doc_id} already indexed or out of order")
                chunk.append((doc_id, terms))
                tokens += len(terms)
                if self._full(len(chunk), tokens):
                    sealed = SealedSegment.from_documents(self._memtable.segment_id, chunk)
                    self._doc_lengths.update(sealed.index.doc_lengths)
                    self._token_count += tokens
                    self._bump_epoch()
                    self._install(sealed)
                    chunk, tokens = [], 0
            for doc_id, terms in chunk:
                self.add_document(doc_id, terms)

    def _full(self, documents: int, tokens: int) -> bool:
        config = self.config
        return documents >= config.seal_document_count or tokens >= config.seal_token_count

    def _maybe_seal(self) -> None:
        if self._full(self._memtable.document_count, self._memtable.token_count):
            self.seal()

    def seal(self) -> Optional[SealedSegment]:
        """Freeze the memtable into a sealed segment; start a fresh one.

        Content-preserving: bumps :attr:`structure`, not :attr:`epoch`.
        Returns the new sealed segment, or None when the memtable is empty.
        """
        if not self._memtable.document_count:
            return None
        return self._install(self._memtable.seal())

    def _install(self, sealed: SealedSegment) -> SealedSegment:
        # ``sealed`` took the memtable's segment id: a fresh memtable starts.
        self._sealed.append(sealed)
        for doc_id in sealed.forward:
            self._locator[doc_id] = sealed
        self._memtable = MemtableSegment(self._next_segment_id)
        self._next_segment_id += 1
        self._structure += 1
        self.seals += 1
        registry = obs.metrics()
        registry.counter("irs.segments.sealed").inc()
        registry.gauge("irs.segments.count." + self.name).set(self.segment_count)
        registry.gauge("irs.segments.memtable_docs." + self.name).set(0)
        return sealed

    # -- read-side accessors (collection read lock held) -------------------

    @property
    def memtable(self) -> MemtableSegment:
        return self._memtable

    def sealed_segments(self) -> List[SealedSegment]:
        return self._sealed

    def scoring_sources(self) -> list:
        """The stack as scoring sources: sealed segments, memtable index last."""
        return [*self._sealed, self._memtable.index]

    @property
    def segment_count(self) -> int:
        """Live segments: sealed ones plus the memtable when non-empty."""
        return len(self._sealed) + (1 if self._memtable.document_count else 0)

    @property
    def document_count(self) -> int:
        return len(self._doc_lengths)

    @property
    def token_count(self) -> int:
        return self._token_count

    @property
    def doc_lengths(self) -> Dict[int, int]:
        """Live doc id -> length map (read-only)."""
        return self._doc_lengths

    def document_length(self, doc_id: int) -> int:
        return self._doc_lengths[doc_id]

    def index_of(self, doc_id: int):
        """The index of the segment holding the *live* ``doc_id`` (or None)."""
        segment = self._locator.get(doc_id)
        return segment.index if segment is not None else None

    def forward_vector(self, doc_id: int) -> Optional[Dict[str, int]]:
        """The live ``{term: tf}`` vector of ``doc_id`` (not a copy)."""
        segment = self._locator.get(doc_id)
        if segment is None:
            return None
        return segment.forward.get(doc_id)

    def tombstone_count(self) -> int:
        return sum(len(segment.tombstones) for segment in self._sealed)

    def tombstone_ratio(self) -> float:
        physical = len(self._doc_lengths) + self.tombstone_count()
        return self.tombstone_count() / physical if physical else 0.0

    def info(self) -> Dict[str, object]:
        """One observability snapshot (shell ``.stats``, engine info)."""
        return {
            "segments": self.segment_count,
            "sealed": len(self._sealed),
            "memtable_documents": self._memtable.document_count,
            "memtable_tokens": self._memtable.token_count,
            "documents": len(self._doc_lengths),
            "tombstones": self.tombstone_count(),
            "tombstone_ratio": round(self.tombstone_ratio(), 4),
            "sealed_postings_bytes": sum(
                segment.postings_bytes() for segment in self._sealed
            ),
            "epoch": self._epoch,
            "structure": self._structure,
            "seals": self.seals,
            "merges": self.merges,
            "tombstones_purged": self.tombstones_purged,
        }

    # -- persistence -------------------------------------------------------

    def load_sealed(self, entry: dict) -> SealedSegment:
        """Register one persisted segment (collection load path only)."""
        segment = SealedSegment.from_payload(self._next_segment_id, entry)
        self._next_segment_id += 1
        self._sealed.append(segment)
        for doc_id in segment.forward:
            self._locator[doc_id] = segment
            self._doc_lengths[doc_id] = segment.index.document_length(doc_id)
        self._token_count += segment.live_token_count
        self._structure += 1
        self._epoch = 1
        return segment

    # -- folding (collection write lock held) ------------------------------

    def fold(self, segments: Sequence[SealedSegment]) -> SealedSegment:
        """Replace the registered ``segments`` by one merged segment.

        Their tombstoned documents are purged; the merged segment takes the
        stack position of the first input.  Content-preserving: bumps
        :attr:`structure`, not :attr:`epoch`.
        """
        started = time.perf_counter()
        with obs.tracer().span(
            "irs.segments.merge", collection=self.name, inputs=len(segments)
        ) as span:
            merged = SealedSegment.merged(self._next_segment_id, segments)
            self._next_segment_id += 1
            span.set_attribute("documents", merged.live_document_count)
            span.set_attribute("postings_bytes", merged.postings_bytes())
            position = self._sealed.index(segments[0])
            retained = [s for s in self._sealed if s not in segments]
            retained.insert(min(position, len(retained)), merged)
            self._sealed = retained
            for doc_id in merged.forward:
                self._locator[doc_id] = merged
        purged = sum(len(segment.tombstones) for segment in segments)
        self._structure += 1
        self.merges += 1
        self.tombstones_purged += purged
        elapsed = time.perf_counter() - started
        registry = obs.metrics()
        registry.counter("irs.segments.merges").inc()
        registry.counter("irs.segments.merged_inputs").inc(len(segments))
        registry.counter("irs.segments.tombstones_purged").inc(purged)
        registry.histogram("irs.segments.merge_seconds").observe(elapsed)
        registry.gauge("irs.segments.count." + self.name).set(self.segment_count)
        obs.slow_log().record(
            "merge", f"segments:{self.name}", elapsed, collection=self.name,
            inputs=len(segments),
        )
        return merged

    def seal_and_fold(self) -> int:
        """Seal the memtable, then fold until :func:`select_candidates`
        picks nothing; returns the number of folds.  The checkpoint step."""
        self.seal()
        folds = 0
        candidates = select_candidates(self)
        while candidates:
            self.fold(candidates)
            folds += 1
            candidates = select_candidates(self)
        return folds

    def compact(self) -> bool:
        """Seal and fold everything into one tombstone-free segment.

        Returns True when a fold happened; False when there is nothing to
        fold or the stack already is one clean segment.
        """
        self.seal()
        if not self._sealed:
            return False
        if len(self._sealed) == 1 and not self._sealed[0].tombstones:
            return False
        self.fold(list(self._sealed))
        return True
