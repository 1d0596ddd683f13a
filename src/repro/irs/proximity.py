"""Proximity matching: INQUERY's ordered/unordered window operators.

``#odN(t1 t2 ...)`` matches where the terms occur *in order* with at most
``N`` positions between consecutive terms; ``#uwN(t1 t2 ...)`` matches
where all terms occur (any order) inside a window of ``N`` positions.
Each match counts like an occurrence of a pseudo-term, so proximity nodes
receive beliefs through the same tf/idf machinery as plain terms.

These operators exercise the positional postings the inverted index stores
(Section 1.1's "internal representation") and give mixed queries phrase
power: ``#od1(information retrieval)`` is the classic adjacency phrase.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.irs.collection import IRSCollection


def ordered_window_matches(position_lists: Sequence[List[int]], window: int) -> int:
    """Count ordered-window matches.

    A match is a choice of one position per term, strictly increasing, with
    each consecutive gap ``0 < gap <= window``.  Counting uses dynamic
    programming over positions (matches ending at each position of the last
    term), which counts every distinct combination exactly once.
    """
    if not position_lists or any(not positions for positions in position_lists):
        return 0
    # ways[i] = number of valid prefixes ending at position_lists[0][i]
    ways = {position: 1 for position in position_lists[0]}
    for positions in position_lists[1:]:
        next_ways: Dict[int, int] = {}
        for position in positions:
            total = 0
            for previous, count in ways.items():
                gap = position - previous
                if 0 < gap <= window:
                    total += count
            if total:
                next_ways[position] = total
        ways = next_ways
        if not ways:
            return 0
    return sum(ways.values())


def unordered_window_matches(position_lists: Sequence[List[int]], window: int) -> int:
    """Count unordered-window matches.

    A match is a set of one position per term whose span (max - min + 1)
    is at most ``window``.  Counted with a sweep: for every choice of the
    *minimum* position, count combinations of the other terms falling in
    ``[min, min + window)`` and strictly greater than it... to stay
    tractable and deterministic we count *minimal* matches the way INQUERY
    did: slide a window over the union of positions and count windows whose
    leftmost element starts a set containing all terms.
    """
    if not position_lists or any(not positions for positions in position_lists):
        return 0
    matches = 0
    # Candidate window starts: every position of every term.
    starts = sorted({p for positions in position_lists for p in positions})
    for start in starts:
        end = start + window  # exclusive
        covered = True
        anchored = False
        for positions in position_lists:
            in_window = [p for p in positions if start <= p < end]
            if not in_window:
                covered = False
                break
            if start in in_window:
                anchored = True
        if covered and anchored:
            matches += 1
    return matches


def proximity_tf(
    collection: IRSCollection,
    doc_id: int,
    terms: Sequence[str],
    window: int,
    ordered: bool,
) -> int:
    """Match count of a proximity expression within one document.

    ``terms`` are raw query terms; analysis is applied here so they meet
    indexed positions in the same form.  Terms that analyze away (stopwords)
    make the expression unmatchable — INQUERY behaved the same.
    """
    index = collection.index
    position_lists: List[List[int]] = []
    for raw in terms:
        term = collection.analyzer.term(raw)
        if term is None:
            return 0
        positions = index.positions(term, doc_id)
        if positions is None:
            return 0
        position_lists.append(positions)
    if ordered:
        return ordered_window_matches(position_lists, window)
    return unordered_window_matches(position_lists, window)


def proximity_document_frequency(
    collection: IRSCollection, terms: Sequence[str], window: int, ordered: bool
) -> int:
    """Number of documents with at least one proximity match."""
    candidate_ids = candidate_documents(collection, terms)
    return sum(
        1
        for doc_id in candidate_ids
        if proximity_tf(collection, doc_id, terms, window, ordered) > 0
    )


def proximity_tf_map(collection: IRSCollection, node) -> Dict[int, int]:
    """``{doc_id: match count}`` of one proximity node, matches only.

    Kept in the collection's ``proximity_memo`` for one index epoch (not a
    document/token-count fingerprint, which a same-length replace_document
    leaves unchanged), so each distinct window is evaluated once per index state.
    """
    memo = collection.proximity_memo
    epoch = collection.index.epoch
    key = (node.ordered, node.window, tuple(node.terms()))
    tf_map = memo.get(key, epoch)
    memo.count_one(tf_map is not None)
    if tf_map is None:
        tf_map = {}
        for doc_id in candidate_documents(collection, node.terms()):
            tf = proximity_tf(
                collection, doc_id, node.terms(), node.window, node.ordered
            )
            if tf > 0:
                tf_map[doc_id] = tf
        memo.put(key, epoch, tf_map)
    return tf_map


def candidate_documents(collection: IRSCollection, terms: Sequence[str]) -> List[int]:
    """Documents containing *all* the (analyzed) terms — the only possible
    proximity matches."""
    doc_sets = []
    for raw in terms:
        term = collection.analyzer.term(raw)
        if term is None:
            return []
        doc_sets.append(collection.stats.doc_id_set(term))
    if not doc_sets:
        return []
    shared = doc_sets[0].intersection(*doc_sets[1:])
    return sorted(shared)
