"""IRS collections.

"Each document set is called 'collection'" (Section 1.1).  A collection owns
an inverted index plus per-document metadata.  The crucial metadata item is
the OID of the database object an IRS document represents: "the mapping of
the IRS result to objects ... can be implemented efficiently by storing the
according object identifier (OID) with each IRS document.  This is possible
as most IRSs allow to administer some meta data with each IRS document"
(Section 4.3).

A COLLECTION object encapsulates "exactly one IRS collection" (Section
4.2), and :class:`IRSCollection` is that collection: documents plus one
:class:`~repro.irs.segments.manager.SegmentManager` named like the
collection, whose sealed segments and memtable index are the **scoring
sources**.  The manager owns the :class:`~repro.irs.view.UnionIndexView`
over them (see DESIGN.md §"Segmented indexing").

Scoring code reads :meth:`IRSCollection.scoring_sources`,
:attr:`IRSCollection.index_version` and
:meth:`IRSCollection.forward_vector` (or the logical ``index``, the one
full read surface over them), and :attr:`stats` holds the statistics
cache over them.  It also owns the memos scoring reuses (:mod:`repro.memo`),
which die with it: results and proximity match maps for one index ``epoch``,
impact columns for one :attr:`~IRSCollection.index_version`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from repro.errors import DocumentMissingError
from repro.irs.analysis import Analyzer
from repro.irs.segments import SegmentConfig, SegmentManager
from repro.irs.statistics import StatisticsCache
from repro.irs.view import UnionIndexView
from repro.memo import Memo

#: Memo bounds per collection.  Impact entries hold per-posting columns, so
#: that bound is modest; the terms most queries share are re-read and kept.
IMPACT_MEMO_LIMIT, PROXIMITY_MEMO_LIMIT = 512, 256


@dataclass
class IRSDocument:
    """One flat document inside a collection."""

    doc_id: int
    text: str
    metadata: Dict[str, str] = field(default_factory=dict)
    #: Bumped on every re-index of this document (``replace_document``).
    #: The single-file store uses ``(doc_id, revision)`` to find which
    #: documents changed since the last checkpoint, so an incremental
    #: checkpoint appends only the delta batch instead of the corpus.
    revision: int = 0


class IRSCollection:
    """A named set of IRS documents with a segmented index over them."""

    def __init__(
        self,
        name: str,
        analyzer: Optional[Analyzer] = None,
        segment_config: Optional[SegmentConfig] = None,
        result_cache_size: int = 128,
    ) -> None:
        self.name = name
        self.analyzer = analyzer or Analyzer()
        self.segments = SegmentManager(name, segment_config)
        self.index = UnionIndexView(self.segments)
        self.stats = StatisticsCache(self.index, self.segments.forward_vector)
        self._documents: Dict[int, IRSDocument] = {}
        self._next_doc_id = 1
        #: ``(model, query[, k]) -> scores`` at one epoch, below the paper's
        #: persistent buffer (Section 4.2), not instead of it.
        self.result_memo = Memo(result_cache_size, "irs.result_cache.hits",
                                "irs.result_cache.misses", "irs.result_cache.evictions")
        #: ``(model, ..., term) -> {id(source): TermImpacts}`` (``repro.irs.topk``).
        self.impact_memo = Memo(IMPACT_MEMO_LIMIT, "irs.impact_cache.hits",
                                "irs.impact_cache.misses", "irs.impact_cache.evictions")
        #: ``(ordered, window, terms) -> {doc_id: matches}`` (``repro.irs.proximity``).
        self.proximity_memo = Memo(PROXIMITY_MEMO_LIMIT, "irs.proximity_cache.hits",
                                   "irs.proximity_cache.misses", "irs.proximity_cache.evictions")

    # -- the source contract: the manager's ------------------------------------

    def scoring_sources(self) -> list:
        """The sources scoring scans, in order; documents are unique across them.

        Each answers ``term_columns(term)`` and ``doc_lengths`` for its live
        documents (see :mod:`repro.irs.view`).
        """
        return self.segments.scoring_sources()

    @property
    def index_version(self) -> tuple:
        """Moves whenever the source list or any source's content does.

        Wider than ``index.epoch``: a seal or merge relocates postings
        between sources without changing any score.
        """
        return self.segments.index_version

    def forward_vector(self, doc_id: int) -> Optional[Mapping[str, int]]:
        """The live ``{term: tf}`` vector of ``doc_id`` (read-only; falsy
        when absent), O(|document|)."""
        return self.segments.forward_vector(doc_id)

    @property
    def document_count(self) -> int:
        """Number of live documents."""
        return self.segments.document_count

    @property
    def segment_count(self) -> int:
        """Number of live index segments."""
        return self.segments.segment_count

    @contextmanager
    def batched_epoch(self) -> Iterator[None]:
        """Coalesce the epoch bumps of a write batch into one (see engine)."""
        with self.segments.batched_epoch():
            yield

    def compact(self) -> bool:
        """Fold all segments into one, purging tombstones (write lock held).

        No-op (False) when there is nothing to fold.  Content-preserving:
        the epoch does not move, so caches keyed on it stay warm.
        """
        return self.segments.compact()

    # -- document management ---------------------------------------------------

    def add_document(self, text: str, metadata: Optional[Dict[str, str]] = None) -> int:
        """Index ``text``; returns the new IRS document id."""
        return self.add_documents([(text, metadata)])[0]

    def add_documents(self, items: Sequence[tuple]) -> List[int]:
        """Index ``(text, metadata)`` items as one batch; returns their new
        doc ids.  Each text is analysed when ``SegmentManager.add_documents``
        reaches it."""
        doc_ids = list(range(self._next_doc_id, self._next_doc_id + len(items)))
        self._next_doc_id += len(items)
        for doc_id, (text, metadata) in zip(doc_ids, items):
            self._documents[doc_id] = IRSDocument(doc_id, text, dict(metadata or {}))
        tokens = self.analyzer.tokens
        self.segments.add_documents(
            (doc_id, tokens(text)) for doc_id, (text, _metadata) in zip(doc_ids, items)
        )
        return doc_ids

    def remove_document(self, doc_id: int) -> None:
        """Delete a document and its postings."""
        self.document(doc_id)  # DocumentMissingError when absent
        del self._documents[doc_id]
        self.segments.remove_document(doc_id)

    def replace_document(self, doc_id: int, text: str) -> None:
        """Re-index a document with new text, keeping id and metadata."""
        document = self.document(doc_id)
        self.segments.remove_document(doc_id)
        document.text = text
        document.revision += 1
        self.segments.add_document(doc_id, self.analyzer.tokens(text))

    def document(self, doc_id: int) -> IRSDocument:
        """The stored document (text + metadata)."""
        try:
            return self._documents[doc_id]
        except KeyError:
            raise DocumentMissingError(
                f"document {doc_id} not in collection {self.name!r}"
            ) from None

    def documents(self) -> List[IRSDocument]:
        """All documents, ascending doc id."""
        return [self._documents[d] for d in sorted(self._documents)]

    def __len__(self) -> int:
        return len(self._documents)

    # -- size accounting (for the granularity experiments) --------------------------

    def indexed_bytes(self) -> int:
        """Approximate index size: bytes of all stored postings.

        Counted as term bytes plus 8 bytes per posting and 8 bytes per
        position entry — a stable, implementation-independent proxy used by
        the redundancy experiments (Section 4.3 / [SAZ94]).  A posting holds
        ``tf`` positions, so the sum comes from the df/cf counters; no
        postings list is decoded.
        """
        index = self.index
        return sum(
            len(term.encode("utf-8"))
            + 8 * index.document_frequency(term)
            + 8 * index.collection_frequency(term)
            for term in index.terms()
        )

    # -- persistence ---------------------------------------------------------------

    @classmethod
    def from_payload(
        cls,
        payload: dict,
        analyzer: Optional[Analyzer] = None,
        segment_config: Optional[SegmentConfig] = None,
    ) -> "IRSCollection":
        """Rebuild a collection from a payload: its documents, and a
        ``"segments"`` list whose entries each load as a sealed segment
        (an ``"index"`` — a ``CompactIndex`` or the older JSON index schema
        of docs/storage-format.md — and the ``"tombstones"`` replayed
        on it).  The single-file store materializes this shape, and so
        does :mod:`repro.store.importer` from older JSON dumps.
        """
        collection = cls(payload["name"], analyzer, segment_config)
        collection._next_doc_id = payload["next_doc_id"]
        collection._documents = documents_of(payload)
        for entry in payload["segments"]:
            collection.segments.load_sealed(entry)
        return collection


def documents_of(payload: dict) -> Dict[int, IRSDocument]:
    """The payload's documents, by doc id."""
    return {
        entry["doc_id"]: IRSDocument(
            entry["doc_id"],
            entry["text"],
            dict(entry["metadata"]),
            int(entry.get("revision", 0)),
        )
        for entry in payload["documents"]
    }

