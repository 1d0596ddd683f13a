"""IRS collections.

"Each document set is called 'collection'" (Section 1.1).  A collection owns
an inverted index plus per-document metadata.  The crucial metadata item is
the OID of the database object an IRS document represents: "the mapping of
the IRS result to objects ... can be implemented efficiently by storing the
according object identifier (OID) with each IRS document.  This is possible
as most IRSs allow to administer some meta data with each IRS document"
(Section 4.3).

A COLLECTION object encapsulates "exactly one IRS collection" (Section
4.2), and :class:`IRSCollection` is that collection, sharded or not: one
facade over a list of :class:`~repro.irs.segments.manager.SegmentManager`\\ s.
Unsharded, it has one manager named like the collection; with
``shard_count=N`` it has N managers named ``<name>#<i>``, and each document
routes to one by the CRC-32 of its OID (:mod:`repro.irs.shards.router`).
Every manager's sealed segments plus its memtable index are the
collection's **scoring sources**, united by one
:class:`~repro.irs.view.UnionIndexView` whose owner is the collection (see
DESIGN.md §"Segmented indexing" and §"Sharded scoring").

Scoring code reads :meth:`IRSCollection.scoring_sources`,
:attr:`IRSCollection.index_version` and
:meth:`IRSCollection.forward_vector` (or the logical ``index``, which
mirrors the ``InvertedIndex`` read interface exactly), and :attr:`stats`
holds the statistics cache over them.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional

from repro.errors import DocumentMissingError
from repro.irs.analysis import Analyzer
from repro.irs.segments import SegmentConfig, SegmentManager
from repro.irs.shards.router import routing_key, shard_of
from repro.irs.statistics import StatisticsCache
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
    """A named set of IRS documents over one segment manager per shard."""

    def __init__(
        self,
        name: str,
        analyzer: Optional[Analyzer] = None,
        segment_config: Optional[SegmentConfig] = None,
        shard_count: int = 0,
    ) -> None:
        if shard_count < 0:
            raise ValueError(f"shard_count must be >= 0, got {shard_count}")
        self.name = name
        self.analyzer = analyzer or Analyzer()
        #: 0 = unsharded; N >= 1 = N hash shards, which the engine's
        #: scatter executor may score in worker processes.
        self.shard_count = shard_count
        names = [f"{name}#{i}" for i in range(shard_count)] or [name]
        self._managers = [SegmentManager(each, segment_config) for each in names]
        self.index = UnionIndexView(self)
        self.stats = StatisticsCache(self.index, self.forward_vector)
        self._documents: Dict[int, IRSDocument] = {}
        self._next_doc_id = 1
        self._doc_lengths_memo: Optional[tuple] = None

    def _manager_of(self, doc_id: int) -> Optional[SegmentManager]:
        """The manager ``doc_id`` belongs to (None when a sharded collection
        has no such document; a lone manager answers for absent ones).

        Routing is a pure function of the document's stable key (its OID,
        else its doc id), so no per-document placement is kept.  With one
        manager there is nothing to route, and these per-document reads
        are the scoring hot path.
        """
        managers = self._managers
        if len(managers) == 1:
            return managers[0]
        document = self._documents.get(doc_id)
        if document is None:
            return None
        key = routing_key(document.metadata, doc_id)
        return managers[shard_of(key, len(managers))]

    def _writer_of(self, doc_id: int) -> SegmentManager:
        if doc_id not in self._documents:
            raise DocumentMissingError(
                f"document {doc_id} not in collection {self.name!r}"
            )
        return self._manager_of(doc_id)

    # -- the source contract, and what the union view asks of its owner -------

    def scoring_sources(self) -> list:
        """The sources scoring scans, in order; documents are unique across them.

        Every manager's sealed segments and memtable index, flattened: the
        inline top-k path runs them against one shared heap, so the
        MaxScore threshold raises across shard boundaries exactly as it
        does across one stack's segments.  Each source answers
        ``term_columns(term)`` and ``doc_lengths`` for its live documents
        (see :mod:`repro.irs.view`).
        """
        return [
            source
            for manager in self._managers
            for source in manager.scoring_sources()
        ]

    @property
    def index_version(self) -> tuple:
        """The managers' ``(epoch, structure)`` versions, as one tuple.

        Wider than ``index.epoch``: a seal or merge relocates postings
        between sources without changing any score.
        """
        return tuple([manager.index_version for manager in self._managers])

    @property
    def epoch(self) -> int:
        """Content generation: the sum of the manager epochs.

        Manager epochs only ever grow, so any content change strictly moves
        the sum — unchanged scores <=> unchanged epoch, as per manager.
        A plain loop: every statistics-cache read validates against it.
        """
        total = 0
        for manager in self._managers:
            total += manager.epoch
        return total

    @property
    def document_count(self) -> int:
        return sum([manager.document_count for manager in self._managers])

    @property
    def token_count(self) -> int:
        return sum([manager.token_count for manager in self._managers])

    @property
    def doc_lengths(self) -> Dict[int, int]:
        """Live doc id -> length (read-only): one manager's own map, or the
        shards' maps united once per version."""
        if len(self._managers) == 1:
            return self._managers[0].doc_lengths
        version = self.index_version
        memo = self._doc_lengths_memo
        if memo is None or memo[0] != version:
            lengths: Dict[int, int] = {}
            for manager in self._managers:
                lengths.update(manager.doc_lengths)
            memo = self._doc_lengths_memo = (version, lengths)
        return memo[1]

    def document_length(self, doc_id: int) -> int:
        manager = self._manager_of(doc_id)
        if manager is None:
            raise KeyError(doc_id)
        return manager.document_length(doc_id)

    def index_of(self, doc_id: int):
        """The index of the segment holding ``doc_id`` (None if unknown)."""
        manager = self._manager_of(doc_id)
        return manager.index_of(doc_id) if manager is not None else None

    def forward_vector(self, doc_id: int) -> Optional[Mapping[str, int]]:
        """The live ``{term: tf}`` vector of ``doc_id`` (read-only; falsy
        when absent), O(|document|)."""
        manager = self._manager_of(doc_id)
        return manager.forward_vector(doc_id) if manager is not None else None

    # -- segment plumbing -------------------------------------------------------

    @property
    def segment_count(self) -> int:
        """Number of live index segments over all managers."""
        return sum([manager.segment_count for manager in self._managers])

    def segment_managers(self) -> List[SegmentManager]:
        """The segment managers behind this collection, in shard order.

        Read-only; the maintenance paths (merge scheduler, store, health
        reports) iterate it.
        """
        return self._managers

    @contextmanager
    def batched_epoch(self) -> Iterator[None]:
        """Coalesce the epoch bumps of a write batch into one (see engine)."""
        with ExitStack() as stack:
            for manager in self._managers:
                stack.enter_context(manager.batched_epoch())
            yield

    def compact(self) -> bool:
        """Fold each manager's segments into one, purging tombstones (write
        lock held).

        False when there is nothing to fold.  Content-preserving: the
        epoch does not move, so caches keyed on it stay warm.
        """
        return any([manager.compact() for manager in self._managers])

    # -- document management ---------------------------------------------------

    def _ingest(self, document: IRSDocument) -> None:
        self._documents[document.doc_id] = document
        self._manager_of(document.doc_id).add_document(
            document.doc_id, self.analyzer.tokens(document.text)
        )

    def add_document(self, text: str, metadata: Optional[Dict[str, str]] = None) -> int:
        """Index ``text``; returns the new IRS document id."""
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        self._ingest(IRSDocument(doc_id, text, dict(metadata or {})))
        return doc_id

    def remove_document(self, doc_id: int) -> None:
        """Delete a document and its postings."""
        manager = self._writer_of(doc_id)
        del self._documents[doc_id]
        manager.remove_document(doc_id)

    def replace_document(self, doc_id: int, text: str) -> None:
        """Re-index a document with new text, keeping id and metadata (and
        so its shard)."""
        manager = self._writer_of(doc_id)
        document = self._documents[doc_id]
        manager.remove_document(doc_id)
        document.text = text
        document.revision += 1
        manager.add_document(doc_id, self.analyzer.tokens(text))

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

    @classmethod
    def from_payload(
        cls,
        payload: dict,
        analyzer: Optional[Analyzer] = None,
        segment_config: Optional[SegmentConfig] = None,
        shard_count: int = 0,
    ) -> "IRSCollection":
        """Rebuild a collection of ``shard_count`` shards from a payload.

        The shape the single-file store materializes, and the one-way
        import of a legacy JSON directory reads: documents plus one
        manager's index entries, or a ``"shards"`` list of them.

        * One manager takes every stored entry as sealed segments (see
          :func:`segment_entries`): shards partition the document space,
          so their concatenation is the exact logical index.
        * As many managers as stored shards: shard *i* loads into manager
          *i* (exact replay, tombstones included).
        * Any other count re-partitions by re-analyzing the stored texts,
          which reproduces the postings exactly as long as the analyzer
          matches the one that indexed them.
        """
        collection = cls(payload["name"], analyzer, segment_config, shard_count)
        collection._next_doc_id = payload["next_doc_id"]
        documents = documents_of(payload)
        stored = payload.get("shards", [payload])
        managers = collection._managers
        if len(managers) in (1, len(stored)):
            collection._documents = documents
            # One manager takes every stored shard, else shard i -> manager i.
            for position, shard_entry in enumerate(stored):
                manager = managers[position % len(managers)]
                for entry in segment_entries(shard_entry):
                    manager.load_sealed(entry)
        else:
            for doc_id in sorted(documents):
                collection._ingest(documents[doc_id])
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


def segment_entries(payload: dict) -> List[dict]:
    """The sealed-segment entries of one (shard) payload.

    A ``"segments"`` list loads entry by entry (physical postings plus the
    tombstone list, replayed on load); a legacy monolithic ``"index"``
    dump loads as one sealed segment.
    """
    if "segments" in payload:
        return payload["segments"]
    return [{"index": payload["index"], "tombstones": []}]
