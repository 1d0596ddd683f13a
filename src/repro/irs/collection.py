"""IRS collections.

"Each document set is called 'collection'" (Section 1.1).  A collection owns
an inverted index plus per-document metadata.  The crucial metadata item is
the OID of the database object an IRS document represents: "the mapping of
the IRS result to objects ... can be implemented efficiently by storing the
according object identifier (OID) with each IRS document.  This is possible
as most IRSs allow to administer some meta data with each IRS document"
(Section 4.3).

A collection is a **versioned list of scoring sources** behind one
logical ``self.index``:

* monolithic — the one source is the :class:`InvertedIndex` itself (the
  default for directly constructed collections, the benchmark baseline,
  and the layout of shard-worker replicas);
* segmented — a :class:`~repro.irs.segments.manager.SegmentManager`'s
  sealed segments plus its memtable index, united by a
  :class:`~repro.irs.view.UnionIndexView` (what the engine creates by
  default; see DESIGN.md §"Segmented indexing");
* sharded — every shard's sources, flattened
  (:class:`~repro.irs.shards.collection.ShardedCollection`).

The layout is decided here and nowhere else: scoring code reads
:meth:`IRSCollection.scoring_sources`, :attr:`IRSCollection.index_version`
and :meth:`IRSCollection.forward_vector` (or the logical ``index``, which
mirrors the ``InvertedIndex`` read interface exactly), and :attr:`stats`
hands back the matching statistics cache.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Union

from repro.errors import DocumentMissingError
from repro.irs.analysis import Analyzer
from repro.irs.inverted_index import InvertedIndex
from repro.irs.segments import SealedSegment, SegmentConfig, SegmentManager
from repro.irs.statistics import ForwardNormStatistics, StatisticsCache
from repro.irs.view import UnionIndexView


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
    """A named set of IRS documents with an inverted index over them."""

    def __init__(
        self,
        name: str,
        analyzer: Optional[Analyzer] = None,
        segment_config: Optional[SegmentConfig] = None,
    ) -> None:
        self.name = name
        self.analyzer = analyzer or Analyzer()
        self.segments: Optional[SegmentManager]
        self.index: Union[InvertedIndex, UnionIndexView]
        if segment_config is not None and segment_config.enabled:
            self.segments = SegmentManager(name, segment_config)
            self.index = UnionIndexView(self.segments)
        else:
            self.segments = None
            self.index = InvertedIndex()
        self._documents: Dict[int, IRSDocument] = {}
        self._next_doc_id = 1
        self._stats: Optional[StatisticsCache] = None
        self._stats_lock = threading.Lock()

    @property
    def stats(self) -> StatisticsCache:
        """The collection's statistics cache (rebuilt if the index is swapped).

        Validity against index mutations is handled inside the cache via the
        index epoch; this property only guards against the index *object*
        being replaced (e.g. by :meth:`from_payload`).  Creation is locked so
        concurrent scorers share one cache instead of racing to build two.
        """
        with self._stats_lock:
            cache = self._stats
            if cache is None or cache.index is not self.index:
                if isinstance(self.index, UnionIndexView):
                    # Every union owner has forward vectors: norms are
                    # computed per document on demand (O(|document|)), not
                    # in one O(postings) sweep per epoch.
                    cache = ForwardNormStatistics(self.index, self.forward_vector)
                else:
                    cache = StatisticsCache(self.index)
                self._stats = cache
            return cache

    # -- the source contract (the one place that knows the layout) -------------

    def scoring_sources(self) -> list:
        """The sources scoring scans, in order; documents are unique across them.

        Each answers ``term_columns(term)`` and ``doc_lengths`` for its live
        documents (see :mod:`repro.irs.view`).
        """
        if self.segments is not None:
            return self.segments.scoring_sources()
        return [self.index]

    @property
    def index_version(self) -> tuple:
        """Moves whenever the source list or any source's content does.

        Wider than ``index.epoch``: a seal or merge relocates postings
        between sources without changing any score.
        """
        if self.segments is not None:
            return self.segments.index_version
        return (self.index.epoch,)

    def forward_vector(self, doc_id: int) -> Optional[Mapping[str, int]]:
        """The live ``{term: tf}`` vector of ``doc_id`` (read-only; falsy
        when absent).  O(|document|) over segments, O(vocabulary) over a
        monolithic index."""
        if self.segments is not None:
            return self.segments.forward_vector(doc_id)
        return self.index.document_vector(doc_id)

    def _postings_writer(self):
        """Where this collection's postings are written."""
        return self.segments if self.segments is not None else self.index

    @property
    def segment_count(self) -> int:
        """Number of live index segments (1 for a monolithic collection)."""
        if self.segments is not None:
            return self.segments.segment_count
        return 1

    def segment_managers(self) -> List[SegmentManager]:
        """All segment managers behind this collection (0 or 1 here).

        The maintenance paths (merge scheduler, health reports) iterate
        this instead of touching :attr:`segments` directly, so a sharded
        collection — which owns one manager *per shard* — plugs in by
        overriding it.
        """
        return [self.segments] if self.segments is not None else []

    @contextmanager
    def batched_epoch(self) -> Iterator[None]:
        """Coalesce the epoch bumps of a write batch into one (see engine)."""
        with self._postings_writer().batched_epoch():
            yield

    def compact(self) -> bool:
        """Fold all segments into one, purging tombstones (write lock held).

        No-op (False) on monolithic collections and when there is nothing
        to fold.  Content-preserving: the epoch does not move, so caches
        keyed on it stay warm.
        """
        if self.segments is None:
            return False
        return self.segments.compact()

    # -- document management ---------------------------------------------------

    def add_document(self, text: str, metadata: Optional[Dict[str, str]] = None) -> int:
        """Index ``text``; returns the new IRS document id."""
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        document = IRSDocument(doc_id, text, dict(metadata or {}))
        self._documents[doc_id] = document
        self._postings_writer().add_document(doc_id, self.analyzer.tokens(text))
        return doc_id

    def remove_document(self, doc_id: int) -> None:
        """Delete a document and its postings."""
        if doc_id not in self._documents:
            raise DocumentMissingError(
                f"document {doc_id} not in collection {self.name!r}"
            )
        del self._documents[doc_id]
        self._postings_writer().remove_document(doc_id)

    def replace_document(self, doc_id: int, text: str) -> None:
        """Re-index a document with new text, keeping id and metadata."""
        if doc_id not in self._documents:
            raise DocumentMissingError(
                f"document {doc_id} not in collection {self.name!r}"
            )
        document = self._documents[doc_id]
        writer = self._postings_writer()
        writer.remove_document(doc_id)
        document.text = text
        document.revision += 1
        writer.add_document(doc_id, self.analyzer.tokens(text))

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

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._documents

    # -- metadata lookups ---------------------------------------------------------

    def find_by_metadata(self, key: str, value: str) -> List[int]:
        """Doc ids whose metadata maps ``key`` to ``value``."""
        return [
            doc_id
            for doc_id in sorted(self._documents)
            if self._documents[doc_id].metadata.get(key) == value
        ]

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

    def text_bytes(self) -> int:
        """Total bytes of raw document text stored in the collection."""
        return sum(len(d.text.encode("utf-8")) for d in self._documents.values())

    # -- persistence ---------------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-encodable dump (documents + index + analyzer config).

        Monolithic collections keep the original ``"index"`` format;
        segmented ones dump per-segment payloads under ``"segments"``
        (physical postings plus the tombstone list, replayed on load), the
        memtable last.
        """
        payload = {
            "name": self.name,
            "next_doc_id": self._next_doc_id,
            "analyzer": self.analyzer.config(),
            "documents": [
                {
                    "doc_id": d.doc_id,
                    "text": d.text,
                    "metadata": d.metadata,
                    "revision": d.revision,
                }
                for d in self.documents()
            ],
        }
        if self.segments is None:
            payload["index"] = self.index.to_payload()
        else:
            entries = [s.to_payload() for s in self.segments.sealed_segments()]
            memtable = self.segments.memtable
            if memtable.document_count:
                entries.append(
                    {"index": memtable.index.to_payload(), "tombstones": []}
                )
            payload["segments"] = entries
        return payload

    @classmethod
    def from_payload(
        cls,
        payload: dict,
        analyzer: Optional[Analyzer] = None,
        segment_config: Optional[SegmentConfig] = None,
    ) -> "IRSCollection":
        """Rebuild a collection dumped by :meth:`to_payload`.

        Either payload format loads into either representation:
        ``segment_config`` (or a ``"segments"`` payload) selects segmented;
        a legacy ``"index"`` payload under a segmented target becomes one
        sealed segment.  A *sharded* dump (see
        ``ShardedCollection.to_payload``) cross-loads too: each shard's
        entries flatten into the segment list — shards partition the
        document space, so the concatenation is the exact logical index.
        """
        if "shards" in payload:
            entries = []
            for shard_entry in payload["shards"]:
                if "segments" in shard_entry:
                    entries.extend(shard_entry["segments"])
                else:
                    entries.append({"index": shard_entry["index"], "tombstones": []})
            payload = {**payload, "segments": entries}
        if segment_config is None and "segments" in payload:
            segment_config = SegmentConfig()
        collection = cls(payload["name"], analyzer, segment_config=segment_config)
        collection._next_doc_id = payload["next_doc_id"]
        for entry in payload["documents"]:
            collection._documents[entry["doc_id"]] = IRSDocument(
                entry["doc_id"],
                entry["text"],
                dict(entry["metadata"]),
                int(entry.get("revision", 0)),
            )
        if collection.segments is not None:
            entries = payload.get("segments")
            if entries is None:
                entries = [{"index": payload["index"], "tombstones": []}]
            for entry in entries:
                collection.segments.load_sealed(entry)
        elif "segments" in payload:
            # Segmented dump into a monolithic target: fold the segments
            # (minus their tombstoned documents) into one index.
            segments = [
                SealedSegment.from_payload(position, entry)
                for position, entry in enumerate(payload["segments"])
            ]
            merged = SealedSegment.merged(
                0, segments, [segment.tombstones for segment in segments]
            )
            # The merge emits the immutable compact form; a monolithic
            # collection stays mutable, so decode into an InvertedIndex.
            collection.index = InvertedIndex.from_payload(merged.index.to_payload())
        else:
            collection.index = InvertedIndex.from_payload(payload["index"])
        return collection
