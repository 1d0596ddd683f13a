"""ShardExecutor: scatter-gather top-k over per-shard worker processes.

One single-worker :class:`~concurrent.futures.ProcessPoolExecutor` per
shard (spawn context — never fork a threaded parent) holds that shard's
replica.  A prunable top-k query is scattered to every shard's pool,
each worker returns its exact shard-local top-k, and the gather merges
them under the global ``(-value, doc_id)`` rank order: any document in
the global top-k is in its shard's top-k (fewer than k documents can
outrank it anywhere), so the merged-and-truncated list *is* the global
top-k — bit-identical to the unsharded path because the replicas score
with the union's exact statistics.

Failure contract: a failed shard — dispatch error, killed worker
(``BrokenProcessPool``), hang (future timeout), or a stale replica — is
retried once on a rebuilt pool with a fresh sync, then re-scored
*inline* from the parent's copy of the shard, seeding the pruning
threshold with the already-merged k-th score.  Every failure mode is
recorded (``irs.shard.retries``/``irs.shard.failovers``/
``irs.shard.timeouts`` counters, per-shard span status); none can
produce a wrong ranking.  When the whole scatter declines (non-prunable
shape, closed executor) the caller falls back to the inline union path,
which is exact for every model and query shape.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.irs.shards import worker as shard_worker
from repro.irs.view import UnionIndexView

_COUNTER_KEYS = (
    "blocks_skipped",
    "blocks_decoded",
    "early_terminations",
    "candidates_scored",
)


class _ShardScoringAdapter:
    """One shard's postings under the parent's global statistics.

    Fed to :func:`repro.irs.topk.topk_scores` when a scatter worker fails
    and its shard must be re-scored inline: the sources are the shard
    manager's own segments, but analyzer, statistics and index are the
    parent collection's — the same global values the worker replica
    computed with, so the fallback's floats match the lost worker's bit
    for bit.

    The adapter is long-lived (one per shard, memoized on the executor) so
    the impact caches the top-k scorer hangs off it stay warm across
    failovers; they key on the parent's full version tuple because
    impacts depend on *global* statistics, not just this shard's content.
    """

    def __init__(self, parent, shard_index: int) -> None:
        self.parent = parent
        self._manager = parent.segment_managers()[shard_index]

    @property
    def analyzer(self):
        return self.parent.analyzer

    @property
    def stats(self):
        return self.parent.stats

    @property
    def index(self) -> UnionIndexView:
        return self.parent.index

    def scoring_sources(self) -> list:
        return self._manager.scoring_sources()

    @property
    def index_version(self) -> tuple:
        return self.parent.index_version


def shard_global_stats(collection) -> dict:
    """The union statistics a worker replica needs.

    ``document_count``/``token_count`` feed the global average document
    length; the ``df`` table covers *every* union term so a replica
    computes the same idf for a query term its own shard never saw.  All
    integers — the replica's floats derive from them exactly.
    """
    index = collection.index
    return {
        "document_count": index.document_count,
        "token_count": index.token_count,
        "df": {term: index.document_frequency(term) for term in index.terms()},
    }


@dataclass(frozen=True)
class ShardConfig:
    """Tunables of the scatter path (mirrors the service's ServiceConfig).

    ``failure_injector`` is the test hook: called as ``injector(label,
    attempt)`` with ``label = "<collection>#<shard>"`` before every
    dispatch attempt; raising makes that attempt fail exactly as a dead
    pool would.
    """

    shard_timeout_seconds: float = 30.0
    max_retries: int = 1
    failure_injector: Optional[Callable[[str, int], None]] = None


class ShardExecutor:
    """Per-shard worker pools plus the scatter-gather-failover driver."""

    def __init__(self, config: Optional[ShardConfig] = None) -> None:
        self._config = config or ShardConfig()
        self._lock = threading.Lock()
        self._pools: Dict[Tuple[str, int], ProcessPoolExecutor] = {}
        #: (collection, shard) -> (shard_version, union_version) last shipped
        #: to the *current* pool; cleared whenever the pool is rebuilt.
        self._versions: Dict[Tuple[str, int], tuple] = {}
        #: collection -> (union_version, shard_global_stats) last computed.
        self._global_stats: Dict[str, tuple] = {}
        #: (collection, shard) -> failover adapter (see _ShardScoringAdapter).
        self._adapters: Dict[Tuple[str, int], _ShardScoringAdapter] = {}
        self._closed = False

    @property
    def config(self) -> ShardConfig:
        return self._config

    # -- pool management -----------------------------------------------------

    def pool(self, name: str, shard_index: int) -> ProcessPoolExecutor:
        """The (lazily created) single-worker pool of one shard."""
        key = (name, shard_index)
        with self._lock:
            if self._closed:
                raise RuntimeError("shard executor is closed")
            pool = self._pools.get(key)
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=multiprocessing.get_context("spawn"),
                )
                self._pools[key] = pool
            return pool

    def _discard_pool(self, name: str, shard_index: int) -> None:
        """Tear a (possibly broken or hung) pool down, replica and all."""
        key = (name, shard_index)
        with self._lock:
            pool = self._pools.pop(key, None)
            self._versions.pop(key, None)
        if pool is None:
            return
        # A hung worker ignores a polite shutdown; terminate outright.
        processes = getattr(pool, "_processes", None)
        if processes:
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        pool.shutdown(wait=False, cancel_futures=True)

    def drop_collection(self, name: str) -> None:
        """Discard every pool and memo of a dropped collection."""
        with self._lock:
            keys = [key for key in self._pools if key[0] == name]
            self._global_stats.pop(name, None)
            for key in [key for key in self._adapters if key[0] == name]:
                del self._adapters[key]
        for key in keys:
            self._discard_pool(*key)

    def close(self) -> None:
        """Shut down every worker pool."""
        with self._lock:
            keys = list(self._pools)
            self._closed = True
        for key in keys:
            self._discard_pool(*key)

    # -- replica sync --------------------------------------------------------

    def _ensure_synced(self, pool, collection, shard_index, union_version, registry):
        """Queue a replica sync ahead of the query when versions moved.

        The pool has one worker, so its queue is FIFO: the sync is
        guaranteed to execute before the query we submit next — no need
        to wait on it here.  Content unchanged on this shard means a
        cheap stats-only sync (other shards moved the union statistics).
        """
        key = (collection.name, shard_index)
        manager = collection.segment_managers()[shard_index]
        shard_version = manager.index_version
        with self._lock:
            shipped = self._versions.get(key)
            stats = self._global_stats.get(collection.name)
        if shipped == (shard_version, union_version):
            return
        if shipped is not None and shipped[0] == shard_version:
            payload = None
        else:
            payload = UnionIndexView(manager).to_payload()
        if stats is None or stats[0] != union_version:
            stats = (union_version, shard_global_stats(collection))
            with self._lock:
                self._global_stats[collection.name] = stats
        pool.submit(
            shard_worker.sync_replica,
            collection.name,
            shard_index,
            shard_version,
            union_version,
            payload,
            collection.analyzer,
            stats[1],
        )
        with self._lock:
            self._versions[key] = (shard_version, union_version)
        registry.counter("irs.shard.syncs").inc()

    def _scoring_adapter(self, collection, shard_index: int) -> _ShardScoringAdapter:
        key = (collection.name, shard_index)
        with self._lock:
            adapter = self._adapters.get(key)
            if adapter is None or adapter.parent is not collection:
                adapter = self._adapters[key] = _ShardScoringAdapter(
                    collection, shard_index
                )
            return adapter

    # -- the scatter-gather driver -------------------------------------------

    def _await(self, future, registry) -> Optional[dict]:
        try:
            return future.result(timeout=self._config.shard_timeout_seconds)
        except FutureTimeoutError:
            registry.counter("irs.shard.timeouts").inc()
            return None
        except Exception:
            return None

    def _dispatch(self, collection, shard_index, union_version,
                  model_name, irs_query, k, attempt, registry):
        """One dispatch attempt; raises on any failure mode it can see."""
        injector = self._config.failure_injector
        if injector is not None:
            injector(f"{collection.name}#{shard_index}", attempt)
        pool = self.pool(collection.name, shard_index)
        self._ensure_synced(pool, collection, shard_index, union_version, registry)
        return pool.submit(
            shard_worker.replica_query,
            collection.name,
            shard_index,
            union_version,
            model_name,
            irs_query,
            k,
        )

    def scatter_topk(
        self,
        collection,
        model_name: str,
        model_impl,
        tree,
        irs_query: str,
        k: int,
        span,
        registry,
    ):
        """Scatter a prunable top-k query; None => caller scores inline.

        Must be called under the collection's read lock (the shard state
        shipped to the replicas and re-scored on failover may not move
        mid-query).  Returns a :class:`~repro.irs.topk.TopKOutcome`: the
        exact top-k values plus the pruning counters summed over shards.
        """
        if self._closed:
            return None
        from repro.irs import topk

        if model_name == "vector":
            plan, _reason = topk._vector_plan(collection, model_impl, tree)
        elif model_name == "inquery":
            plan, _reason = topk._inquery_plan(collection, model_impl, tree)
        else:
            return None
        if plan is None:
            return None
        registry.counter("irs.shard.scatters").inc()
        name = collection.name
        union_version = collection.index_version
        pending: Dict[int, Optional[object]] = {}
        for shard_index in range(collection.shard_count):
            try:
                pending[shard_index] = self._dispatch(
                    collection, shard_index, union_version,
                    model_name, irs_query, k, 1, registry,
                )
            except Exception:
                pending[shard_index] = None
        entries: List[Tuple[int, float]] = []
        counters = dict.fromkeys(_COUNTER_KEYS, 0)
        failed: List[int] = []
        retried = 0
        tracer = obs.tracer()
        for shard_index in range(collection.shard_count):
            with tracer.span(
                "irs.shard.query", collection=name, shard=shard_index
            ) as shard_span:
                future = pending[shard_index]
                reply = self._await(future, registry) if future is not None else None
                if reply is None or reply.get("status") != "ok":
                    reply = None
                    for attempt in range(2, self._config.max_retries + 2):
                        self._discard_pool(name, shard_index)
                        retried += 1
                        registry.counter("irs.shard.retries").inc()
                        try:
                            future = self._dispatch(
                                collection, shard_index, union_version,
                                model_name, irs_query, k, attempt, registry,
                            )
                        except Exception:
                            continue
                        reply = self._await(future, registry)
                        if reply is not None and reply.get("status") == "ok":
                            break
                        reply = None
                if reply is None:
                    failed.append(shard_index)
                    shard_span.set_attribute("status", "failover")
                else:
                    shard_span.set_attribute("status", "ok")
                    shard_span.set_attribute("results", len(reply["ranked"]))
                    entries.extend(reply["ranked"])
                    for counter_key in _COUNTER_KEYS:
                        counters[counter_key] += reply["counters"][counter_key]
        entries.sort(key=lambda entry: (-entry[1], entry[0]))
        for shard_index in failed:
            registry.counter("irs.shard.failovers").inc()
            # The merged k-th value so far is a proven lower bound on the
            # global k-th score: seed the inline re-score's threshold with
            # it — exact, and the lost shard's work is not repeated from a
            # cold threshold.
            floor = entries[k - 1][1] if len(entries) >= k else None
            outcome = topk.topk_scores(
                self._scoring_adapter(collection, shard_index),
                model_name,
                model_impl,
                tree,
                k,
                floor_value=floor,
            )
            if outcome.values is None:
                # Can't happen for shapes that passed planning above, but
                # never risk a wrong ranking: decline the whole scatter.
                return None
            entries.extend(outcome.values.items())
            entries.sort(key=lambda entry: (-entry[1], entry[0]))
            for counter_key in _COUNTER_KEYS:
                counters[counter_key] += getattr(outcome, counter_key)
        span.set_attribute("sharded", True)
        span.set_attribute("shards", collection.shard_count)
        if retried:
            span.set_attribute("shard_retries", retried)
        if failed:
            span.set_attribute("shard_failovers", len(failed))
        return topk.TopKOutcome(dict(entries[:k]), **counters)
