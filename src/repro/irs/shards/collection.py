"""ShardedCollection: one logical collection over N shard sub-collections.

Each shard is an ordinary :class:`~repro.irs.collection.IRSCollection`
(so every shard keeps its own memtable/seal/merge lifecycle) named
``<name>#<i>``.  Documents route by CRC-32 of their OID
(:mod:`repro.irs.shards.router`); reads go through a
:class:`~repro.irs.view.UnionIndexView` this collection owns, and
statistics through a :class:`~repro.irs.statistics.StatisticsCache`
over it — both globally exact, so every scoring path (exhaustive, pruned,
scattered) produces scores bit-identical to an unsharded collection
holding the same documents.

Its scoring sources are every shard's sources, flattened — inline top-k
then runs all shards' segments against one shared heap, raising the
MaxScore threshold across shard boundaries — and per-shard scoring
adapters serve the scatter path's inline failover.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, List, Mapping, Optional

from repro.errors import DocumentMissingError
from repro.irs.analysis import Analyzer
from repro.irs.collection import (
    IRSCollection,
    IRSDocument,
    documents_of,
    segment_entries,
)
from repro.irs.segments import SegmentConfig, SegmentManager
from repro.irs.shards.router import routing_key, shard_of
from repro.irs.statistics import StatisticsCache
from repro.irs.view import UnionIndexView


class _ShardScoringAdapter:
    """One shard's postings under the parent's global statistics.

    Fed to :func:`repro.irs.topk.topk_scores` when a scatter worker fails
    and its shard must be re-scored inline: the sources are the shard's
    own segments, but analyzer, statistics and index are the parent's —
    the same global values the worker replica computed with, so the
    fallback's floats match the lost worker's bit for bit.

    The adapter is long-lived (one per shard, memoized on the parent) so
    the impact caches the top-k scorer hangs off it stay warm across
    failovers; they key on the parent's full version tuple because
    impacts depend on *global* statistics, not just this shard's content.
    """

    def __init__(self, parent: "ShardedCollection", shard_index: int) -> None:
        self._parent = parent
        self._shard = parent.shards[shard_index]

    @property
    def analyzer(self) -> Analyzer:
        return self._parent.analyzer

    @property
    def stats(self) -> StatisticsCache:
        return self._parent.stats

    @property
    def index(self) -> UnionIndexView:
        return self._parent.index

    def scoring_sources(self) -> list:
        return self._shard.scoring_sources()

    @property
    def index_version(self) -> tuple:
        return self._parent.index_version


class ShardedCollection(IRSCollection):
    """A hash-partitioned collection with exact global statistics."""

    def __init__(
        self,
        name: str,
        analyzer: Optional[Analyzer] = None,
        segment_config: Optional[SegmentConfig] = None,
        shard_count: int = 2,
    ) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        # The parent holds no physical index of its own (no segment
        # manager): the base initializer is skipped and the union view over
        # the shards installed instead.
        self.name = name
        self.analyzer = analyzer or Analyzer()
        self.shard_count = shard_count
        self.shards: List[IRSCollection] = [
            IRSCollection(f"{name}#{i}", self.analyzer, segment_config=segment_config)
            for i in range(shard_count)
        ]
        self._doc_shard: Dict[int, int] = {}
        self.index = UnionIndexView(self)
        self.stats = StatisticsCache(self.index, self.forward_vector)
        self._documents: Dict[int, IRSDocument] = {}
        self._next_doc_id = 1
        self._adapters: Dict[int, _ShardScoringAdapter] = {}
        self._adapters_lock = threading.Lock()
        self._global_stats_memo: Optional[tuple] = None
        self._doc_lengths_memo: Optional[tuple] = None

    # -- routing ------------------------------------------------------------

    def shard_index_of(self, doc_id: int) -> Optional[int]:
        """The shard index owning ``doc_id`` (None if unknown)."""
        return self._doc_shard.get(doc_id)

    def shard_for(self, doc_id: int) -> Optional[IRSCollection]:
        """The shard sub-collection owning ``doc_id`` (None if unknown)."""
        shard_index = self._doc_shard.get(doc_id)
        if shard_index is None:
            return None
        return self.shards[shard_index]

    # -- the source contract, and what the union view asks of its owner ------

    def scoring_sources(self) -> list:
        """Every shard's scoring sources, flattened into one list.

        The inline top-k path runs them against one shared heap, so the
        MaxScore threshold raises across shard boundaries exactly as it
        does across one collection's segments.
        """
        return [
            source for shard in self.shards for source in shard.scoring_sources()
        ]

    @property
    def index_version(self) -> tuple:
        """The per-shard versions, as one tuple.

        Includes structure, because a shard sealing or merging relocates
        postings between sources even though no content changed.
        """
        return tuple(shard.index_version for shard in self.shards)

    def forward_vector(self, doc_id: int) -> Optional[Mapping[str, int]]:
        shard = self.shard_for(doc_id)
        return shard.forward_vector(doc_id) if shard is not None else None

    @property
    def epoch(self) -> int:
        """Content generation: the sum of the shard epochs.

        Shard epochs only ever grow, so any content change strictly moves
        the sum — the invalidation contract (unchanged scores <=>
        unchanged epoch) holds exactly as it does per shard.
        """
        return sum(shard.index.epoch for shard in self.shards)

    @property
    def document_count(self) -> int:
        return len(self._doc_shard)

    @property
    def token_count(self) -> int:
        return sum(shard.index.token_count for shard in self.shards)

    @property
    def doc_lengths(self) -> Dict[int, int]:
        """Live doc id -> length over all shards, memoized per version."""
        version = self.index_version
        memo = self._doc_lengths_memo
        if memo is None or memo[0] != version:
            lengths: Dict[int, int] = {}
            for shard in self.shards:
                lengths.update(shard.index.doc_lengths)
            memo = self._doc_lengths_memo = (version, lengths)
        return memo[1]

    def document_length(self, doc_id: int) -> int:
        return self.shards[self._doc_shard[doc_id]].index.document_length(doc_id)

    def index_of(self, doc_id: int):
        """The owning shard's index (None if unknown): shards partition the
        document space, so exactly one can answer per-document reads."""
        shard = self.shard_for(doc_id)
        return shard.index if shard is not None else None

    # -- segment plumbing ----------------------------------------------------

    @property
    def segment_count(self) -> int:
        return sum(shard.segment_count for shard in self.shards)

    def segment_managers(self) -> List[SegmentManager]:
        return [
            manager for shard in self.shards for manager in shard.segment_managers()
        ]

    @contextmanager
    def batched_epoch(self) -> Iterator[None]:
        with ExitStack() as stack:
            for shard in self.shards:
                stack.enter_context(shard.batched_epoch())
            yield

    def compact(self) -> bool:
        compacted = [shard.compact() for shard in self.shards]
        return any(compacted)

    # -- scatter-path support ------------------------------------------------

    def scoring_adapter(self, shard_index: int) -> _ShardScoringAdapter:
        """The (memoized) single-shard scoring adapter for failover."""
        with self._adapters_lock:
            adapter = self._adapters.get(shard_index)
            if adapter is None:
                adapter = _ShardScoringAdapter(self, shard_index)
                self._adapters[shard_index] = adapter
            return adapter

    def shard_global_stats(self) -> dict:
        """The union statistics a worker replica needs, memoized per version.

        ``document_count``/``token_count`` feed the global average document
        length; the ``df`` table covers *every* union term so a replica
        computes the same idf for a query term its own shard never saw.
        All integers — the replica's floats derive from them exactly.
        """
        version = self.index_version
        memo = self._global_stats_memo
        if memo is not None and memo[0] == version:
            return memo[1]
        index = self.index
        payload = {
            "document_count": index.document_count,
            "token_count": index.token_count,
            "df": {term: index.document_frequency(term) for term in index.terms()},
        }
        self._global_stats_memo = (version, payload)
        return payload

    def shard_document_counts(self) -> List[int]:
        """Live documents per shard (for skew reporting in ``health()``)."""
        return [shard.index.document_count for shard in self.shards]

    # -- document management -------------------------------------------------

    def _ingest(self, document: IRSDocument) -> int:
        shard_index = shard_of(
            routing_key(document.metadata, document.doc_id), self.shard_count
        )
        shard = self.shards[shard_index]
        self._documents[document.doc_id] = document
        shard._documents[document.doc_id] = document
        shard.segments.add_document(
            document.doc_id, self.analyzer.tokens(document.text)
        )
        self._doc_shard[document.doc_id] = shard_index
        return shard_index

    def add_document(
        self, text: str, metadata: Optional[Dict[str, str]] = None
    ) -> int:
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        self._ingest(IRSDocument(doc_id, text, dict(metadata or {})))
        return doc_id

    def remove_document(self, doc_id: int) -> None:
        if doc_id not in self._documents:
            raise DocumentMissingError(
                f"document {doc_id} not in collection {self.name!r}"
            )
        shard_index = self._doc_shard.pop(doc_id)
        shard = self.shards[shard_index]
        del self._documents[doc_id]
        shard._documents.pop(doc_id, None)
        shard.segments.remove_document(doc_id)

    def replace_document(self, doc_id: int, text: str) -> None:
        if doc_id not in self._documents:
            raise DocumentMissingError(
                f"document {doc_id} not in collection {self.name!r}"
            )
        # The routing key (OID, else doc id) is stable under re-indexing,
        # so the document stays on its shard.
        document = self._documents[doc_id]
        writer = self.shards[self._doc_shard[doc_id]].segments
        writer.remove_document(doc_id)
        document.text = text
        document.revision += 1
        writer.add_document(doc_id, self.analyzer.tokens(text))

    # -- persistence ---------------------------------------------------------

    @classmethod
    def from_payload(
        cls,
        payload: dict,
        analyzer: Optional[Analyzer] = None,
        segment_config: Optional[SegmentConfig] = None,
        shard_count: Optional[int] = None,
    ) -> "ShardedCollection":
        """Rebuild from a sharded *or* unsharded payload.

        A sharded payload whose shard count matches loads each shard's
        postings directly (exact replay, tombstones included).  An
        unsharded payload — or a shard-count change — re-partitions by
        re-analyzing the stored document texts, which reproduces the
        postings exactly as long as the analyzer matches the one that
        indexed them (the same contract ``IRSCollection.from_payload``
        already has).
        """
        stored = payload.get("shard_count")
        count = shard_count if shard_count is not None else stored
        if count is None:
            raise ValueError(
                "shard_count required to load an unsharded payload as sharded"
            )
        collection = cls(
            payload["name"],
            analyzer,
            segment_config=segment_config,
            shard_count=count,
        )
        collection._next_doc_id = payload["next_doc_id"]
        documents = documents_of(payload)
        entries = payload.get("shards")
        if entries is not None and count == stored:
            collection._documents = dict(documents)
            for shard_index, entry in enumerate(entries):
                shard = collection.shards[shard_index]
                for sub in segment_entries(entry):
                    shard.segments.load_sealed(sub)
                for doc_id in shard.index.document_ids():
                    collection._doc_shard[doc_id] = shard_index
                    shard._documents[doc_id] = documents[doc_id]
        else:
            # Re-partition (unsharded payload, or the shard count changed).
            for doc_id in sorted(documents):
                collection._ingest(documents[doc_id])
        return collection
