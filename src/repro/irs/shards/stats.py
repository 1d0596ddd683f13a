"""ShardStatistics: per-document lazy norms over the shard union.

The sharded sibling of
:class:`~repro.irs.segments.stats.SegmentedStatistics`: df/idf/avg-dl
memos are inherited from :class:`~repro.irs.statistics.StatisticsCache`
over the :class:`~repro.irs.shards.view.ShardUnionView` — integer-exact
global counters, so idf values are bit-equal to the monolithic cache's —
and TF-IDF norms are computed per document on demand from the owning
shard's forward vector, accumulating the document's terms in **sorted
order** (the canonical order every statistics implementation uses).  A
norm is therefore bit-identical no matter which representation computes
it: monolithic sweep, segment stack, shard union, or a worker replica
holding only its own shard's postings plus the global df table.
"""

from __future__ import annotations

from repro.irs.statistics import ForwardNormStatistics


class ShardStatistics(ForwardNormStatistics):
    """Epoch-validated statistics memo with per-document lazy norms."""

    def __init__(self, view, collection) -> None:
        super().__init__(view, collection.forward_vector)
