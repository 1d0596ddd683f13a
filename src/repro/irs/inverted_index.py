"""Inverted index: the IRS's internal document representation.

Section 1.1: "During the indexing process, the documents within an
IRS-collection are transformed to an internal representation (e.g., inverted
lists)".  This module provides exactly that: per-term postings lists with
term frequencies and positions, plus the global statistics retrieval models
need (document count, document lengths, document/collection frequencies).

All aggregate statistics (posting count, token count, per-term collection
frequencies) are maintained as running counters updated by
``add_document``/``remove_document``, so reading them is O(1).  Sorted
postings lists are materialized once per term and reused until the term is
touched again.

This dict form is the memtable of every collection's segment stack
(:mod:`repro.irs.segments`), where small writes land; sealed segments, and
the full chunks of an indexing batch, take the compact block form of
:mod:`repro.irs.postings`.  Tests also build it as the fresh-rebuild reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Posting:
    """Occurrences of one term in one document."""

    doc_id: int
    positions: List[int] = field(default_factory=list)

    @property
    def tf(self) -> int:
        """Term frequency within the document."""
        return len(self.positions)


class InvertedIndex:
    """Postings lists over integer document ids."""

    def __init__(self) -> None:
        self._postings: Dict[str, Dict[int, Posting]] = {}
        self._doc_lengths: Dict[int, int] = {}
        self._collection_frequency: Dict[str, int] = {}
        self._posting_count = 0
        self._token_count = 0
        self._sorted: Dict[str, List[Posting]] = {}

    # -- building -------------------------------------------------------------

    def add_document(self, doc_id: int, terms: List[str]) -> Dict[str, List[int]]:
        """Index ``terms`` (analysis already applied) under ``doc_id``.

        Returns term -> positions, in first-occurrence order; the lists are
        the new postings' own, so callers must treat them as read-only.
        """
        if doc_id in self._doc_lengths:
            raise ValueError(f"document {doc_id} already indexed")
        self._doc_lengths[doc_id] = len(terms)
        self._token_count += len(terms)
        grouped: Dict[str, List[int]] = {}
        for position, term in enumerate(terms):
            grouped.setdefault(term, []).append(position)
        postings, frequency, cached = self._postings, self._collection_frequency, self._sorted
        for term, positions in grouped.items():
            postings.setdefault(term, {})[doc_id] = Posting(doc_id, positions)
            frequency[term] = frequency.get(term, 0) + len(positions)
            cached.pop(term, None)
        self._posting_count += len(grouped)
        return grouped

    def remove_document(self, doc_id: int, terms: List[str]) -> None:
        """Remove all trace of ``doc_id``, whose terms are ``terms``.

        O(|document terms|): callers know the document's terms (the
        memtable from its forward map), so no postings list is scanned.
        """
        if doc_id not in self._doc_lengths:
            raise KeyError(doc_id)
        self._token_count -= self._doc_lengths[doc_id]
        del self._doc_lengths[doc_id]
        candidates = [
            (term, self._postings[term]) for term in set(terms)
            if term in self._postings
        ]
        empty_terms = []
        for term, by_doc in candidates:
            posting = by_doc.pop(doc_id, None)
            if posting is None:
                continue
            self._posting_count -= 1
            remaining = self._collection_frequency[term] - posting.tf
            if remaining:
                self._collection_frequency[term] = remaining
            else:
                del self._collection_frequency[term]
            self._sorted.pop(term, None)
            if not by_doc:
                empty_terms.append(term)
        for term in empty_terms:
            del self._postings[term]

    # -- statistics ----------------------------------------------------------

    @property
    def document_count(self) -> int:
        """Number of indexed documents."""
        return len(self._doc_lengths)

    @property
    def posting_count(self) -> int:
        """Number of (term, document) postings (running counter, O(1))."""
        return self._posting_count

    @property
    def token_count(self) -> int:
        """Total number of indexed term occurrences (running counter, O(1))."""
        return self._token_count

    def document_length(self, doc_id: int) -> int:
        """Number of terms indexed for ``doc_id``."""
        return self._doc_lengths[doc_id]

    @property
    def average_document_length(self) -> float:
        """Mean document length (0.0 for an empty index)."""
        if not self._doc_lengths:
            return 0.0
        return self._token_count / len(self._doc_lengths)

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return len(self._postings.get(term, ()))

    def collection_frequency(self, term: str) -> int:
        """Total occurrences of ``term`` across all documents (O(1))."""
        return self._collection_frequency.get(term, 0)

    # -- access ----------------------------------------------------------------

    def postings(self, term: str) -> List[Posting]:
        """The postings list of ``term`` in doc-id order (empty when absent).

        The list is materialized once and cached until the term is touched
        by add/remove again; callers must treat it as read-only.
        """
        cached = self._sorted.get(term)
        if cached is not None:
            return cached
        by_doc = self._postings.get(term)
        if by_doc is None:
            return []
        ordered = [by_doc[doc_id] for doc_id in sorted(by_doc)]
        self._sorted[term] = ordered
        return ordered

    def term_columns(self, term: str) -> Iterator[Tuple[List[int], List[int]]]:
        """Decoded ``(doc_ids, tfs)`` columns of ``term``, doc-id order.

        The scoring read path: two parallel lists per run of
        :data:`~repro.irs.postings.BLOCK_SIZE` documents (the dict form's
        virtual blocks, so block bookkeeping matches the compact form),
        built straight from the term's dictionary — no sorted
        :class:`Posting` list is memoized and no position is touched.
        """
        # Local import: postings.py needs Posting from this module.
        from repro.irs.postings import BLOCK_SIZE

        by_doc = self._postings.get(term)
        if not by_doc:
            return
        ids = sorted(by_doc)
        tfs = [len(by_doc[doc_id].positions) for doc_id in ids]
        for start in range(0, len(ids), BLOCK_SIZE):
            yield ids[start : start + BLOCK_SIZE], tfs[start : start + BLOCK_SIZE]

    @property
    def doc_lengths(self) -> Dict[int, int]:
        """doc id -> length of every indexed document (read-only)."""
        return self._doc_lengths

    def term_frequency(self, term: str, doc_id: int) -> int:
        """tf of ``term`` in ``doc_id`` (0 when absent)."""
        posting = self._postings.get(term, {}).get(doc_id)
        return posting.tf if posting else 0

    def positions(self, term: str, doc_id: int) -> Optional[List[int]]:
        """Positions of ``term`` in ``doc_id`` (None when absent, read-only)."""
        posting = self._postings.get(term, {}).get(doc_id)
        return posting.positions if posting else None

    def document_ids(self) -> List[int]:
        """All indexed doc ids, ascending."""
        return sorted(self._doc_lengths)

    def terms(self) -> Iterator[str]:
        """All distinct terms (unordered)."""
        return iter(self._postings)
