"""The IRS engine facade.

Manages named collections and answers queries.  Results come back through
the API, in process (:meth:`IRSEngine.query`): Section 4.5 of the paper
names the result file it parsed a stopgap — "This mechanism can be improved
by using the API of an IRS" — and a file would round every IRS value.

The engine counts its operations in the ``obs`` registry
(``irs.query.executed``, ``irs.index.*``, ``irs.result_cache.*``), which the
benchmark harness reads (IRS invocations are the paper's main cost driver
for buffering and update propagation).
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro import obs
from repro.obs.telemetry import active_profile
from repro.errors import (
    DuplicateCollectionError,
    UnknownCollectionError,
    UnknownModelError,
)
from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.models import MODELS, RetrievalModel
from repro.irs.queries import parse_irs_query
from repro.irs.segments import SegmentConfig, select_candidates
from repro.sync import ReadWriteLock

logger = logging.getLogger(__name__)


@dataclass
class IRSResult:
    """The outcome of one IRS query against one collection."""

    collection: str
    query: str
    model: str
    values: Dict[int, float]  # doc_id -> IRS value

    def ranked(self) -> List[tuple]:
        """(doc_id, value) pairs, best first, doc id as tiebreaker."""
        return sorted(self.values.items(), key=lambda kv: (-kv[1], kv[0]))

    def by_metadata(self, collection: IRSCollection, key: str) -> Dict[str, float]:
        """Re-key values by a metadata field (e.g. ``oid``).

        When several IRS documents of the collection share the metadata
        value, the maximum IRS value wins (one object may own several IRS
        documents, Section 4.3).
        """
        out: Dict[str, float] = {}
        for doc_id, value in self.values.items():
            meta_value = collection.document(doc_id).metadata.get(key)
            if meta_value is None:
                continue
            if meta_value not in out or value > out[meta_value]:
                out[meta_value] = value
        return out


class IRSEngine:
    """A multi-collection IRS with exchangeable retrieval models."""

    def __init__(
        self,
        default_model: str = "inquery",
        analyzer: Optional[Analyzer] = None,
        result_cache_size: int = 128,
        segment_config: Optional[SegmentConfig] = None,
    ) -> None:
        if default_model not in MODELS:
            raise UnknownModelError(
                f"unknown retrieval model {default_model!r}; know {sorted(MODELS)}"
            )
        self._collections: Dict[str, IRSCollection] = {}
        #: Lazy restart (single-file store): collections whose payload has
        #: not been touched yet.  ``collection()`` materializes on first
        #: access; until then only the name exists in memory.  Iteration
        #: paths that sweep ``_collections`` (segment info, merge backlog,
        #: memtable info) deliberately skip unmaterialized collections —
        #: an untouched collection has no memtable and no merge pressure.
        self._lazy_loaders: Dict[str, "Callable[[], IRSCollection]"] = {}
        self._default_model = default_model
        self._analyzer = analyzer
        #: Tuning of every collection's segment stack (seal thresholds,
        #: merge policy); see docs/api.md.
        self.segment_config = segment_config or SegmentConfig()
        #: Guards the collection registry and the per-collection lock table.
        self._registry_lock = threading.RLock()
        #: Per-collection readers-writer locks: queries read, index mutations
        #: write.  Acquired *after* any database locks (see repro.sync).
        self._collection_locks: Dict[str, ReadWriteLock] = {}
        #: The bound of each collection's result memo (``IRSCollection.result_memo``);
        #: 0 keeps no results.
        self.result_cache_size = max(0, result_cache_size)

    # -- concurrency ---------------------------------------------------------

    def rwlock(self, name: str) -> ReadWriteLock:
        """The readers-writer lock serializing access to collection ``name``.

        One lock per collection name, created on demand and kept across
        drop/recreate so in-flight holders never race a registry swap.
        """
        with self._registry_lock:
            lock = self._collection_locks.get(name)
            if lock is None:
                lock = ReadWriteLock()
                self._collection_locks[name] = lock
            return lock

    @contextmanager
    def reading(self, name: str) -> Iterator[None]:
        """Hold collection ``name``'s read lock (concurrent queries)."""
        with self.rwlock(name).reading():
            yield

    @contextmanager
    def mutating(self, name: str) -> Iterator[None]:
        """Hold collection ``name``'s write lock (index mutations)."""
        with self.rwlock(name).writing():
            yield

    @contextmanager
    def bulk_mutating(self, name: str) -> Iterator[None]:
        """Write lock plus epoch batching for a grouped mutation window.

        Every add/remove inside the context defers its epoch bump; the
        epoch advances once on exit if anything mutated, so a propagation
        window of N pending updates evicts epoch-keyed caches (statistics,
        result and proximity memos, ResultSets) once instead of N times.  The
        coalesced bump is attributed to ``irs.index.epoch_bumps`` here
        because the per-operation engine methods observe a zero delta
        inside the batch.
        """
        collection = self.collection(name)
        with self.rwlock(name).writing():
            epoch_before = collection.index.epoch
            try:
                with collection.batched_epoch():
                    yield
            finally:
                delta = collection.index.epoch - epoch_before
                if delta:
                    obs.metrics().counter("irs.index.epoch_bumps").inc(delta)

    # -- collection management ----------------------------------------------

    def create_collection(
        self, name: str, analyzer: Optional[Analyzer] = None
    ) -> IRSCollection:
        """Create an empty collection called ``name``."""
        with self._registry_lock:
            if name in self._collections or name in self._lazy_loaders:
                raise DuplicateCollectionError(f"IRS collection {name!r} already exists")
            collection = IRSCollection(
                name, analyzer or self._analyzer, self.segment_config,
                self.result_cache_size,
            )
            self._collections[name] = collection
            return collection

    def drop_collection(self, name: str) -> None:
        """Delete a collection, its index, and its cached results."""
        with self._registry_lock:
            if name not in self._collections and name not in self._lazy_loaders:
                raise UnknownCollectionError(f"no IRS collection {name!r}")
            collection = self._collections.pop(name, None)
            self._lazy_loaders.pop(name, None)
        dropped = len(collection.result_memo) if collection is not None else 0
        obs.metrics().counter("irs.result_cache.dropped").inc(dropped)
        logger.debug(
            "dropped IRS collection %r (%d cached results discarded)", name, dropped
        )

    def collection(self, name: str) -> IRSCollection:
        """Look up a collection by name (materializing a lazy one)."""
        collection = self._collections.get(name)
        if collection is not None:
            return collection
        with self._registry_lock:
            collection = self._collections.get(name)
            if collection is None:
                loader = self._lazy_loaders.pop(name, None)
                if loader is None:
                    raise UnknownCollectionError(f"no IRS collection {name!r}")
                started = time.perf_counter()
                try:
                    collection = loader()
                except BaseException:
                    # Leave the loader registered so a transient failure
                    # (e.g. a mid-pack read) can be retried.
                    self._lazy_loaders[name] = loader
                    raise
                self._collections[name] = collection
                registry = obs.metrics()
                registry.counter("store.lazy.materializations").inc()
                registry.rolling("store.materialize.seconds").observe(
                    time.perf_counter() - started
                )
            return collection

    def register_lazy_collection(self, name: str, loader) -> None:
        """Register ``name`` to be built by ``loader()`` on first touch."""
        with self._registry_lock:
            if name in self._collections:
                raise DuplicateCollectionError(
                    f"IRS collection {name!r} already exists"
                )
            self._lazy_loaders[name] = loader

    def is_lazy(self, name: str) -> bool:
        """True while ``name`` is registered but not yet materialized."""
        with self._registry_lock:
            return name in self._lazy_loaders

    def lazy_collection_names(self) -> List[str]:
        """Names registered for lazy load and still untouched, sorted."""
        with self._registry_lock:
            return sorted(self._lazy_loaders)

    def has_collection(self, name: str) -> bool:
        """True when ``name`` exists (materialized or lazy)."""
        return name in self._collections or name in self._lazy_loaders

    def collection_names(self) -> List[str]:
        """All collection names (materialized or lazy), sorted."""
        with self._registry_lock:
            return sorted(set(self._collections) | set(self._lazy_loaders))

    # -- indexing -------------------------------------------------------------

    def index_document(
        self, collection_name: str, text: str, metadata: Optional[Dict[str, str]] = None
    ) -> int:
        """Add one document to a collection; returns its IRS doc id."""
        return self.index_documents(collection_name, [(text, metadata)])[0]

    def index_documents(self, collection_name: str, items: Sequence[tuple]) -> List[int]:
        """Add ``(text, metadata)`` items to a collection as one batch;
        returns their IRS doc ids (see ``SegmentManager.add_documents``)."""
        collection = self.collection(collection_name)
        with self.mutating(collection_name):
            epoch_before = collection.index.epoch
            doc_ids = collection.add_documents(items)
            epoch_after = collection.index.epoch
        registry = obs.metrics()
        registry.counter("irs.index.additions").inc(len(doc_ids))
        registry.counter("irs.index.epoch_bumps").inc(epoch_after - epoch_before)
        return doc_ids

    def remove_document(self, collection_name: str, doc_id: int) -> None:
        """Remove one document from a collection."""
        collection = self.collection(collection_name)
        with self.mutating(collection_name):
            epoch_before = collection.index.epoch
            collection.remove_document(doc_id)
            epoch_after = collection.index.epoch
        registry = obs.metrics()
        registry.counter("irs.index.removals").inc()
        registry.counter("irs.index.epoch_bumps").inc(epoch_after - epoch_before)

    def replace_document(self, collection_name: str, doc_id: int, text: str) -> None:
        """Re-index one document with new text."""
        collection = self.collection(collection_name)
        with self.mutating(collection_name):
            epoch_before = collection.index.epoch
            collection.replace_document(doc_id, text)
            epoch_after = collection.index.epoch
        registry = obs.metrics()
        registry.counter("irs.index.replacements").inc()
        registry.counter("irs.index.epoch_bumps").inc(epoch_after - epoch_before)

    # -- querying ---------------------------------------------------------------

    def query(
        self,
        collection_name: str,
        irs_query: str,
        model: Optional[str] = None,
        top_k: Optional[int] = None,
    ) -> IRSResult:
        """Evaluate ``irs_query`` against a collection (API exchange).

        With ``top_k`` the result holds only the best ``top_k`` documents
        (rank order: value descending, doc id ascending) — scored through
        the MaxScore/block-max pruned path of :mod:`repro.irs.topk` when
        the query shape allows it, identical scores guaranteed; otherwise
        exhaustively, then truncated.  The pruning decision is recorded on
        the ``irs.query`` span (``pruned`` / ``prune_fallback``), so it
        shows up in ``explain()`` output, and so is ``outcome``.
        """
        collection = self.collection(collection_name)
        model_name = model or self._default_model
        try:
            model_impl: RetrievalModel = MODELS[model_name]()
        except KeyError:
            raise UnknownModelError(
                f"unknown retrieval model {model_name!r}"
            ) from None
        registry = obs.metrics()
        registry.counter("irs.query.executed").inc()
        profile = active_profile()
        stats_before = collection.stats.cache_info() if profile is not None else None
        started = time.perf_counter()
        with obs.tracer().span(
            "irs.query", collection=collection_name, model=model_name,
            query=obs.trim(irs_query),
        ) as span:
            if top_k is not None:
                span.set_attribute("top_k", top_k)
            with self.reading(collection_name):
                # Captured under the read lock: the segment/epoch state the
                # scores were computed against, so a slow entry or .explain
                # can attribute a stall to a rebuild or a wide segment stack.
                epoch = collection.index.epoch
                segment_count = collection.segment_count
                values = self._query_values(
                    collection, model_name, model_impl, irs_query, span, top_k,
                )
            span.set_attribute("results", len(values))
            span.set_attribute("epoch", epoch)
            span.set_attribute("segments", segment_count)
            # The one classification of how the result was produced; the
            # slow log and request telemetry read it from here.
            attrs = span.attributes
            if attrs.get("cached"):
                span.set_attribute("outcome", "cached")
            elif attrs.get("pruned"):
                span.set_attribute("outcome", "pruned")
            elif "prune_fallback" in attrs:
                span.set_attribute("outcome", "fallback:" + str(attrs["prune_fallback"]))
            else:
                span.set_attribute("outcome", "exhaustive")
        elapsed = time.perf_counter() - started
        registry.rolling("irs.query.seconds." + model_name).observe(elapsed)
        if profile is not None:
            profile.queries += 1
            profile.scoring_seconds += elapsed
            profile.segments_touched += segment_count
            # Term-statistics cache traffic attributed by delta.  Concurrent
            # queries on the same collection can bleed into each other's
            # delta; exact per-thread accounting would need a per-posting
            # hook, which the ≤5% overhead budget rules out.
            stats_after = collection.stats.cache_info()
            profile.stats_cache_hits += stats_after["hits"] - stats_before["hits"]
            profile.stats_cache_misses += (
                stats_after["misses"] - stats_before["misses"]
            )
        # The slow log carries the span's attribution: k, the outcome, and
        # how wide the segment stack was.
        info: Dict[str, object] = dict(
            collection=collection_name, model=model_name,
            segments=segment_count, epoch=epoch,
        )
        if top_k is not None:
            info["top_k"] = top_k
        if "outcome" in attrs:
            info["outcome"] = attrs["outcome"]
        if obs.slow_log().record("irs", irs_query, elapsed, **info):
            registry.counter("irs.query.slow").inc()
        return IRSResult(collection_name, irs_query, model_name, values)

    def _query_values(
        self,
        collection: IRSCollection,
        model_name: str,
        model_impl: RetrievalModel,
        irs_query: str,
        span,
        top_k: Optional[int] = None,
    ) -> Dict[int, float]:
        """Result-memo lookup + scoring for :meth:`query`, with hit attribution.

        Runs under the collection's read lock (the caller holds it), so the
        index epoch cannot move mid-call.
        """
        registry = obs.metrics()
        profile = active_profile()
        epoch = collection.index.epoch
        memo = collection.result_memo
        # Top-k results are a different value set than full results, so the
        # key grows a k dimension.
        key = (model_name, irs_query) if top_k is None else (model_name, irs_query, top_k)
        cached = memo.get(key, epoch)
        memo.count_one(cached is not None)
        span.set_attribute("cached", cached is not None)
        if cached is not None:
            if profile is not None:
                profile.result_cache_hits += 1
            # Hand out a copy so callers cannot poison the kept values.
            return dict(cached)
        if key in memo:  # same query, but the index mutated since it was kept
            registry.counter("irs.result_cache.epoch_invalidations").inc()
        if profile is not None:
            profile.result_cache_misses += 1
        tree = parse_irs_query(irs_query, default_operator=model_impl.default_operator)
        if top_k is None:
            values = model_impl.score(collection, tree)
            if profile is not None:
                profile.candidates_scored += len(values)
        else:
            values = self._score_top_k(
                collection, model_name, model_impl, tree, top_k, span, registry
            )
        memo.put(key, epoch, dict(values))
        return values

    def _score_top_k(
        self,
        collection: IRSCollection,
        model_name: str,
        model_impl: RetrievalModel,
        tree,
        top_k: int,
        span,
        registry,
    ) -> Dict[int, float]:
        """Pruned top-k scoring with exhaustive fallback (read lock held)."""
        from repro.irs import topk as topk_mod

        outcome = topk_mod.topk_scores(
            collection, model_name, model_impl, tree, top_k
        )
        profile = active_profile()
        if outcome.values is not None:
            span.set_attribute("pruned", True)
            span.set_attribute("candidates", outcome.candidates_scored)
            registry.counter("irs.topk.pruned_queries").inc()
            registry.counter("irs.postings.blocks_skipped").inc(
                outcome.blocks_skipped
            )
            registry.counter("irs.postings.blocks_decoded").inc(
                outcome.blocks_decoded
            )
            registry.counter("irs.topk.early_terminations").inc(
                outcome.early_terminations
            )
            if profile is not None:
                profile.pruned_queries += 1
                profile.blocks_skipped += outcome.blocks_skipped
                profile.blocks_decoded += outcome.blocks_decoded
                profile.early_terminations += outcome.early_terminations
                profile.candidates_scored += outcome.candidates_scored
            return outcome.values
        # Nested operators, #not, proximity leaves and non-positive weights
        # keep their exhaustive semantics; record why.
        span.set_attribute("pruned", False)
        span.set_attribute("prune_fallback", outcome.reason)
        registry.counter("irs.topk.fallbacks").inc()
        values = model_impl.score(collection, tree)
        if profile is not None:
            profile.fallback_queries += 1
            profile.candidates_scored += len(values)
        return topk_mod.truncate_top_k(values, top_k)

    # -- segment maintenance ---------------------------------------------------

    def compact_collection(self, name: str) -> bool:
        """Fold all of ``name``'s segments into one, purging tombstones.

        The one fold of an in-memory system (a durable one also folds at
        every checkpoint).  Runs under the collection write lock;
        content-preserving, so the epoch (and every cache keyed on it) is
        untouched.  Returns True when a fold happened (False for nothing
        to fold or a single clean segment).
        """
        collection = self.collection(name)
        with self.mutating(name):
            return collection.compact()

    def merge_backlog(self) -> int:
        """Sealed segments the size-tiered policy would fold right now.

        What the next checkpoint folds (an in-memory system folds only
        through :meth:`compact_collection`).  A point-in-time read without
        locks.
        """
        return sum(
            len(select_candidates(collection.segments))
            for collection in list(self._collections.values())
        )

    def total_segments(self) -> int:
        """Live segments across all materialized collections."""
        return sum(
            collection.segment_count
            for collection in list(self._collections.values())
        )

    def memtable_info(self) -> Dict[str, int]:
        """Unsealed (memtable) volume across collections, for health reports."""
        documents = tokens = approx_bytes = 0
        for collection in list(self._collections.values()):
            memtable = collection.segments.memtable
            documents += memtable.document_count
            tokens += memtable.token_count
            approx_bytes += memtable.approx_bytes()
        return {"documents": documents, "tokens": tokens, "bytes": approx_bytes}

    def segment_info(self) -> Dict[str, Dict[str, object]]:
        """Per-collection segment snapshots."""
        return {
            name: collection.segments.info()
            for name, collection in sorted(self._collections.items())
        }
