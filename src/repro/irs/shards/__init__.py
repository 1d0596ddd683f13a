"""Sharded collections: hash-partitioned indexes, scatter-gather scoring.

A :class:`ShardedCollection` splits one logical collection into N shard
sub-collections (hash on the document's OID), each with its own segment
lifecycle, behind the same :class:`~repro.irs.view.UnionIndexView` a
segment stack uses — here over every shard's sources — so statistics stay
globally exact.  Scoring is therefore **bit-identical** to the unsharded
path — see DESIGN.md §"Sharded scoring" for the full argument.

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

from repro.irs.shards.collection import ShardedCollection
from repro.irs.shards.executor import ShardConfig, ShardExecutor
from repro.irs.shards.router import routing_key, shard_of

__all__ = [
    "ShardConfig",
    "ShardExecutor",
    "ShardedCollection",
    "routing_key",
    "shard_of",
]
