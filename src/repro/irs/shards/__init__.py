"""Sharding: hash routing and scatter-gather scoring.

A sharded collection is an ordinary
:class:`~repro.irs.collection.IRSCollection` built with ``shard_count=N``:
it holds N segment managers instead of one, routes each document to one
of them by hashing its OID (:mod:`repro.irs.shards.router`), and serves
reads through the same :class:`~repro.irs.view.UnionIndexView` over every
manager's sources — so statistics stay globally exact and scoring is
**bit-identical** to the unsharded path (DESIGN.md §"Sharded scoring").

Two scoring paths exist:

* inline — the union view feeds the ordinary engine paths (every model,
  every query shape); the top-k scorer sees each shard's segments as
  sources sharing one heap, so the MaxScore threshold raises across
  shard boundaries;
* scatter — :class:`ShardExecutor` fans a prunable top-k query out to
  process-pool workers holding shard replicas, merges the per-shard
  top-k, and re-scores failed shards inline with the merged k-th score
  as a floor.  A killed or hung worker degrades to retry then inline
  fallback, never to a wrong ranking.
"""

from repro.irs.shards.executor import ShardConfig, ShardExecutor
from repro.irs.shards.router import routing_key, shard_of

__all__ = [
    "ShardConfig",
    "ShardExecutor",
    "routing_key",
    "shard_of",
]
