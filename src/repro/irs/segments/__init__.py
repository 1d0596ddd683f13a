"""Segmented log-structured index subsystem.

Every collection stores its postings as a stack of segments — one
mutable in-memory memtable absorbing all writes, plus immutable sealed
segments with tombstones for logical deletion — served to the retrieval
models through a :class:`~repro.irs.view.UnionIndexView` (owned by the
:class:`SegmentManager`) whose statistics and postings equal those of a
fresh :class:`~repro.irs.inverted_index.InvertedIndex` of the live
documents.
Each checkpoint seals the memtable and folds the segments the size-tiered
policy (:func:`select_candidates`) picks, purging tombstones.  See
DESIGN.md §"Segmented indexing" for the lifecycle and epoch semantics.
"""

from repro.irs.segments.manager import SegmentManager, select_candidates
from repro.irs.segments.segment import MemtableSegment, SealedSegment, SegmentConfig

__all__ = [
    "MemtableSegment",
    "SealedSegment",
    "SegmentConfig",
    "SegmentManager",
    "select_candidates",
]
