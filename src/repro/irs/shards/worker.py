"""Shard replica workers: the functions a ProcessPoolExecutor runs.

Each shard gets its own single-worker pool (see
:class:`~repro.irs.shards.executor.ShardExecutor`), whose process holds a
**replica** of the shard (:class:`ShardReplica`): one sealed segment of
the shard's live postings (the sync ships the ``to_payload`` of a union
view over the shard's segment manager), wrapped in a
:class:`GlobalStatsIndex` that overrides every statistic scoring reads —
document/token counts, average document length, the per-term df table —
with the *union's* integer-exact values.
The replica's idf, average-dl and per-document norms are therefore
bit-identical to the parent's, and
:func:`repro.irs.topk.topk_scores` over the replica returns exactly the
shard-local top-k of the global ranking.

Sync protocol (single worker per pool, so the task queue is FIFO): the
parent ships a full sync (postings payload + analyzer + global stats)
when the shard's content changed, or a cheap stats-only sync when only
*other* shards changed; queries carry the union version they expect and
report ``stale`` on any mismatch, which the parent treats as a failure
(retry, then inline fallback) — never a wrong ranking.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

from repro.irs.analysis import Analyzer
from repro.irs.queries import parse_irs_query
from repro.irs.segments import SealedSegment
from repro.irs.statistics import StatisticsCache

#: Replica registry of this worker process: (collection, shard) -> state.
_REPLICAS: Dict[Tuple[str, int], dict] = {}


class GlobalStatsIndex:
    """A shard's local postings under the union's global statistics.

    Per-document reads (postings, lengths, vectors) come from the local
    sealed segment — built from live postings only, so it carries no
    tombstone and its physical index *is* its live content; every *global*
    statistic comes from the values the parent shipped.  ``epoch`` is a
    sync generation counter — each sync (full or stats-only) bumps it, so
    the statistics cache and the top-k impact caches keyed on it
    invalidate exactly when the global numbers can have moved.
    """

    def __init__(
        self,
        segment: SealedSegment,
        document_count: int,
        token_count: int,
        df: Dict[str, int],
        generation: int,
    ) -> None:
        self.segment = segment
        self._local = segment.index
        self._document_count = document_count
        self._token_count = token_count
        self._df = df
        self._generation = generation

    def update_stats(
        self, document_count: int, token_count: int, df: Dict[str, int]
    ) -> None:
        self._document_count = document_count
        self._token_count = token_count
        self._df = df
        self._generation += 1

    # -- versioning (drives cache invalidation in the replica) -------------

    @property
    def epoch(self) -> int:
        return self._generation

    # -- global statistics --------------------------------------------------

    @property
    def document_count(self) -> int:
        return self._document_count

    @property
    def token_count(self) -> int:
        return self._token_count

    @property
    def average_document_length(self) -> float:
        if not self._document_count:
            return 0.0
        return self._token_count / self._document_count

    def document_frequency(self, term: str) -> int:
        return self._df.get(term, 0)

    def collection_frequency(self, term: str) -> int:
        # Not consulted by the prunable models; local value for tooling.
        return self._local.collection_frequency(term)

    # -- local reads ---------------------------------------------------------

    @property
    def posting_count(self) -> int:
        return self._local.posting_count

    @property
    def term_count(self) -> int:
        return self._local.term_count

    def postings(self, term: str):
        return self._local.postings(term)

    def term_columns(self, term: str):
        return self._local.term_columns(term)

    def document_length(self, doc_id: int) -> int:
        return self._local.document_length(doc_id)

    def term_frequency(self, term: str, doc_id: int) -> int:
        return self._local.term_frequency(term, doc_id)

    def positions(self, term: str, doc_id: int) -> Optional[List[int]]:
        return self._local.positions(term, doc_id)

    def has_document(self, doc_id: int) -> bool:
        return self._local.has_document(doc_id)

    def document_ids(self) -> List[int]:
        return self._local.document_ids()

    def terms(self):
        return self._local.terms()

    def document_vector(self, doc_id: int) -> Dict[str, int]:
        return dict(self.segment.forward.get(doc_id, {}))

    @property
    def doc_lengths(self) -> Dict[int, int]:
        return self._local.doc_lengths


class ShardReplica:
    """What top-k scoring reads of a shard, in the worker process.

    The five members of the executor's ``_ShardScoringAdapter``: the
    analyzer, the statistics cache and the logical index (both global),
    the scoring sources (the one local segment) and the version the
    impact caches key on — the sync generation.
    """

    def __init__(
        self, analyzer: Optional[Analyzer], index: GlobalStatsIndex
    ) -> None:
        self.analyzer = analyzer or Analyzer()
        self.index = index
        self.stats = StatisticsCache(index, index.segment.forward.get)

    def scoring_sources(self) -> list:
        return [self.index.segment]

    @property
    def index_version(self) -> tuple:
        return (self.index.epoch,)


def sync_replica(
    collection_name: str,
    shard_index: int,
    shard_version: tuple,
    union_version: tuple,
    index_payload: Optional[dict],
    analyzer: Optional[Analyzer],
    global_stats: dict,
) -> dict:
    """Install or refresh this worker's replica of one shard.

    ``index_payload is None`` means stats-only: the shard's own content
    did not change (the parent verified the shard version), only the
    union statistics did.  Requests a full sync when the premise fails.
    """
    key = (collection_name, shard_index)
    entry = _REPLICAS.get(key)
    if index_payload is None:
        if entry is None or entry["shard_version"] != shard_version:
            return {"status": "need_full"}
        wrapper: GlobalStatsIndex = entry["collection"].index
        wrapper.update_stats(
            global_stats["document_count"],
            global_stats["token_count"],
            global_stats["df"],
        )
        entry["union_version"] = union_version
        return {"status": "synced", "mode": "stats"}
    generation = (entry["collection"].index.epoch + 1) if entry else 1
    segment = SealedSegment.from_payload(0, {"index": index_payload})
    replica = ShardReplica(
        analyzer,
        GlobalStatsIndex(
            segment,
            global_stats["document_count"],
            global_stats["token_count"],
            global_stats["df"],
            generation,
        ),
    )
    _REPLICAS[key] = {
        "shard_version": shard_version,
        "union_version": union_version,
        "collection": replica,
    }
    return {"status": "synced", "mode": "full"}


def replica_query(
    collection_name: str,
    shard_index: int,
    union_version: tuple,
    model_name: str,
    irs_query: str,
    k: int,
) -> dict:
    """Top-k score the replica; exact shard-local slice of the global ranking."""
    from repro.irs import topk
    from repro.irs.models import MODELS

    entry = _REPLICAS.get((collection_name, shard_index))
    if entry is None or entry["union_version"] != union_version:
        return {"status": "stale"}
    collection = entry["collection"]
    model_impl = MODELS[model_name]()
    tree = parse_irs_query(irs_query, default_operator=model_impl.default_operator)
    outcome = topk.topk_scores(collection, model_name, model_impl, tree, k)
    if outcome.values is None:
        return {"status": "ineligible", "reason": outcome.reason}
    ranked = sorted(outcome.values.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "status": "ok",
        "ranked": ranked,
        "counters": {
            "blocks_skipped": outcome.blocks_skipped,
            "blocks_decoded": outcome.blocks_decoded,
            "early_terminations": outcome.early_terminations,
            "candidates_scored": outcome.candidates_scored,
        },
    }


# -- fault-injection helpers (dispatched instead of a query by tests) -------

def crash_worker() -> None:
    """Die without cleanup, as a kill -9 would (BrokenProcessPool upstream)."""
    os._exit(1)


def hang_worker(seconds: float) -> bool:
    """Stall the single worker so the next query times out upstream."""
    time.sleep(seconds)
    return True
