"""SegmentedStatistics: the no-rebuild-cliff statistics cache.

The monolithic :class:`~repro.irs.statistics.StatisticsCache` builds the
TF-IDF norms of *all* documents in one O(postings) sweep the first time any
norm is read — the right trade for a read-mostly index, but after every
update propagation (epoch bump) the very next vector-model query pays the
whole sweep again: the rebuild cliff this subsystem removes.

Over a segment stack the forward maps give each document's term vector in
O(|document|), so norms are computed *per document on demand* and memoized:
a query scoring k candidate documents after an update costs O(sum of their
vector sizes), not O(total postings).  df/idf/avg-dl memos are inherited
unchanged — the :class:`MergedIndexView` already serves integer-exact
global statistics, so the idf of every term is bit-identical to the
monolithic cache's, and each norm accumulates the document's terms in
**sorted order** — the canonical order every statistics implementation
uses — so norms (and therefore vector scores) are bit-identical to the
monolithic cache's, not merely within a float tolerance.  The sharded
scoring path leans on exactly this property (see DESIGN.md §"Sharded
scoring").
"""

from __future__ import annotations

from repro.irs.segments.manager import SegmentManager
from repro.irs.segments.view import MergedIndexView
from repro.irs.statistics import ForwardNormStatistics


class SegmentedStatistics(ForwardNormStatistics):
    """Epoch-validated statistics memo with per-document lazy norms."""

    def __init__(self, view: MergedIndexView, manager: SegmentManager) -> None:
        super().__init__(view, manager.forward_vector)
