"""The index read contract, checked once over every implementer.

A collection is a versioned list of *scoring sources* behind one logical
index (``repro.irs.view``).  Whatever holds the postings — the dict-form
``InvertedIndex``, a ``CompactIndex``, a memtable, a sealed segment with
tombstones, the union view over a segment stack (before, in the middle of
and after a merge, or imported from an older build's shard list) — must read exactly like an ``InvertedIndex`` built
from scratch over the same live documents: integer statistics exactly,
postings and columns identically.  One body (:func:`check_source`,
:func:`check_index`, :func:`check_collection`) runs over all of them; a
new representation joins by adding one builder to :data:`CASES`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.inverted_index import InvertedIndex
from repro.irs.postings import BLOCK_SIZE, CompactIndex
from repro.irs.segments import SealedSegment, SegmentConfig, SegmentManager
from repro.irs.view import UnionIndexView
from tests.legacy import ShardedHistory

#: ``common`` is in every document, so its list spans several blocks.
VOCABULARY = ["www", "nii", "telnet", "database", "retrieval"] + [
    f"w{i}" for i in range(20)
]
ABSENT = "nowhere"


def random_terms(rng: random.Random) -> List[str]:
    return ["common"] + rng.choices(VOCABULARY, k=rng.randint(1, 10))


def rebuild(docs: Dict[int, List[str]]) -> InvertedIndex:
    """The reference: a dict-form index built from scratch."""
    index = InvertedIndex()
    for doc_id in sorted(docs):
        index.add_document(doc_id, docs[doc_id])
    return index


@dataclass
class Case:
    subject: object  #: the implementer under test
    docs: Dict[int, List[str]]  #: its live documents, doc id -> terms
    #: "index": the full InvertedIndex read surface; "source": what a
    #: scoring source owes the union view (a sealed segment)
    kind: str = "index"
    #: term -> expected ``term_columns`` block lengths, where the case pins them
    block_shapes: Optional[Dict[str, List[int]]] = None
    #: set when the subject is ``collection.index``: the layout members
    #: are then checked too, and the contract must survive further writes
    collection: Optional[IRSCollection] = None


# ---------------------------------------------------------------------------
# The contract
# ---------------------------------------------------------------------------

def columns_of(source, term):
    return [
        (doc_id, tf)
        for ids, tfs in source.term_columns(term)
        for doc_id, tf in zip(ids, tfs)
    ]


def check_source(subject, reference: InvertedIndex, context: str = "") -> None:
    """What every scoring source answers for its live documents."""
    assert subject.posting_count == reference.posting_count, context
    assert sorted(subject.terms()) == sorted(reference.terms()), context
    lengths = subject.doc_lengths
    for doc_id in reference.document_ids():
        assert lengths[doc_id] == reference.document_length(doc_id), context
    for term in sorted(set(reference.terms()) | set(VOCABULARY) | {ABSENT}):
        where = f"{context}: {term}"
        assert subject.document_frequency(term) == reference.document_frequency(term), where
        assert subject.collection_frequency(term) == reference.collection_frequency(
            term
        ), where
        expected = [(p.doc_id, p.positions) for p in reference.postings(term)]
        assert [(p.doc_id, p.positions) for p in subject.postings(term)] == expected, where
        blocks = list(subject.term_columns(term))
        assert all(len(ids) == len(tfs) <= BLOCK_SIZE for ids, tfs in blocks), where
        # Doc ids ascend within a source, not across the sources of a view.
        assert sorted(columns_of(subject, term)) == [
            (doc_id, len(positions)) for doc_id, positions in expected
        ], where


def check_index(subject, reference: InvertedIndex, context: str = "") -> None:
    """The full read surface of ``InvertedIndex``."""
    check_source(subject, reference, context)
    assert subject.document_count == reference.document_count, context
    assert subject.token_count == reference.token_count, context
    assert subject.term_count == reference.term_count, context
    assert subject.average_document_length == reference.average_document_length, context
    assert subject.document_ids() == reference.document_ids(), context
    assert sorted(subject.doc_lengths) == reference.document_ids(), context
    for doc_id in reference.document_ids():
        assert subject.has_document(doc_id), context
        assert subject.document_length(doc_id) == reference.document_length(doc_id)
        vector = reference.document_vector(doc_id)
        assert subject.document_vector(doc_id) == vector, context
        for term, tf in vector.items():
            assert subject.term_frequency(term, doc_id) == tf
            assert subject.positions(term, doc_id) == reference.positions(term, doc_id)
        assert subject.term_frequency(ABSENT, doc_id) == 0
        assert subject.positions(ABSENT, doc_id) is None
    gone = max(reference.document_ids(), default=0) + 1000
    assert not subject.has_document(gone)
    assert subject.document_vector(gone) == {}
    assert subject.term_frequency("common", gone) == 0
    assert subject.positions("common", gone) is None


def check_collection(collection: IRSCollection, reference: InvertedIndex) -> None:
    """``scoring_sources()`` / ``index_version`` / ``forward_vector()``."""
    sources = collection.scoring_sources()
    for term in sorted(set(reference.terms()) | {ABSENT}):
        scanned = [pair for source in sources for pair in columns_of(source, term)]
        # Documents are unique across sources: no pair is scanned twice.
        assert sorted(scanned) == columns_of(reference, term), term
        for source in sources:
            for doc_id, _tf in columns_of(source, term):
                assert source.doc_lengths[doc_id] == reference.document_length(doc_id)
    for doc_id in reference.document_ids():
        assert dict(collection.forward_vector(doc_id)) == reference.document_vector(doc_id)
    version = collection.index_version
    hash(version)  # it keys memos
    assert collection.index_version == version, "reads do not move the version"


def run_case(case: Case) -> None:
    reference = rebuild(case.docs)
    if case.kind == "source":
        check_source(case.subject, reference)
    else:
        check_index(case.subject, reference)
    for term, shape in (case.block_shapes or {}).items():
        assert [len(ids) for ids, _tfs in case.subject.term_columns(term)] == shape
    collection = case.collection
    if collection is None:
        return
    check_collection(collection, reference)
    # The contract holds across further writes, and every write is visible
    # through the version (so nothing keyed on it can go stale).
    docs = dict(case.docs)
    seen = {collection.index_version}
    added = collection.add_document("common fresh words www")
    docs[added] = collection.analyzer.tokens("common fresh words www")
    victim = min(case.docs)
    collection.remove_document(victim)
    del docs[victim]
    seen.add(collection.index_version)
    replaced = max(case.docs)
    collection.replace_document(replaced, "common nii nii rewritten")
    docs[replaced] = collection.analyzer.tokens("common nii nii rewritten")
    seen.add(collection.index_version)
    assert len(seen) == 3
    reference = rebuild(docs)
    check_index(collection.index, reference, "after writes")
    check_collection(collection, reference)


# ---------------------------------------------------------------------------
# The implementers
# ---------------------------------------------------------------------------

def churned_docs(seed: int, count: int = 300, removals: int = 60):
    """``(all, live)`` term lists: ``count`` documents, ``removals`` to delete."""
    rng = random.Random(seed)
    everything = {doc_id: random_terms(rng) for doc_id in range(1, count + 1)}
    dead = set(rng.sample(sorted(everything), removals))
    return everything, {d: t for d, t in everything.items() if d not in dead}


def inverted_case() -> Case:
    everything, live = churned_docs(1)
    index = rebuild(everything)
    for doc_id in set(everything) - set(live):
        index.remove_document(doc_id, everything[doc_id])
    return Case(index, live, block_shapes={"common": [BLOCK_SIZE, len(live) - BLOCK_SIZE]})


def compact_case() -> Case:
    _, live = churned_docs(2)
    subject = CompactIndex.from_inverted(rebuild(live))
    return Case(subject, live, block_shapes={"common": [BLOCK_SIZE, len(live) - BLOCK_SIZE]})


def memtable_case() -> Case:
    everything, live = churned_docs(3)
    manager = SegmentManager("memtable", SegmentConfig(seal_document_count=10_000))
    for doc_id, terms in everything.items():
        manager.add_document(doc_id, terms)
    for doc_id in set(everything) - set(live):
        manager.remove_document(doc_id)  # physical: nothing is sealed
    assert not manager.sealed_segments()
    return Case(manager.memtable.index, live)


def sealed_tombstoned_case() -> Case:
    """One sealed segment; its second block entirely tombstoned."""
    rng = random.Random(4)
    count = 3 * BLOCK_SIZE + 5
    docs = {doc_id: random_terms(rng) for doc_id in range(1, count + 1)}
    manager = SegmentManager("sealed", SegmentConfig(seal_document_count=10_000))
    for doc_id, terms in docs.items():
        manager.add_document(doc_id, terms)
    segment = manager.seal()
    for doc_id in [*range(BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 1), count]:
        manager.remove_document(doc_id)
        del docs[doc_id]
    assert segment.tombstones
    # One pair per physical block: deletions empty a block, never drop it.
    return Case(
        segment, docs, kind="source",
        block_shapes={"common": [BLOCK_SIZE, 0, BLOCK_SIZE, 4]},
    )


def _segmented_collection(seed: int):
    everything, live = churned_docs(seed)
    collection = IRSCollection(
        f"seg{seed}",
        Analyzer(stemming=False),
        segment_config=SegmentConfig(seal_document_count=40, tier_fanout=3),
    )
    ids = {
        doc_id: collection.add_document(" ".join(terms))
        for doc_id, terms in everything.items()
    }
    assert list(ids) == list(ids.values())
    for doc_id in set(everything) - set(live):
        collection.remove_document(doc_id)
    manager = collection.segments
    assert len(manager.sealed_segments()) >= 5 and manager.tombstone_count()
    assert manager.memtable.document_count
    return collection, live


def segments_before_merge_case() -> Case:
    collection, live = _segmented_collection(5)
    return Case(collection.index, live, collection=collection)


def segments_mid_merge_case() -> Case:
    """A merge is built but not folded in; a delete landed before the build."""
    collection, live = _segmented_collection(6)
    inputs = collection.segments.sealed_segments()[:3]
    victim = sorted(inputs[0].forward)[0]
    collection.remove_document(victim)
    del live[victim]
    SealedSegment.merged(0, inputs)  # the inputs stay registered
    return Case(collection.index, live, collection=collection)


def segments_after_merge_case() -> Case:
    collection, live = _segmented_collection(7)
    manager = collection.segments
    inputs = manager.sealed_segments()[:3]
    victim = sorted(inputs[1].forward)[0]
    manager.fold(inputs)
    collection.remove_document(victim)
    del live[victim]
    assert victim in manager.sealed_segments()[0].tombstones, "tombstoned after the fold"
    return Case(collection.index, live, collection=collection)


def segments_after_compact_case() -> Case:
    collection, live = _segmented_collection(8)
    epoch = collection.index.epoch
    assert collection.compact() is True
    assert collection.index.epoch == epoch, "compaction is content-preserving"
    (segment,) = collection.segments.sealed_segments()
    assert segment.tombstones == set()
    return Case(collection.index, live, collection=collection)


def shards_import_case(shard_count: int, sealing: bool):
    """A collection opened from the shards an older build partitioned it
    into (``tests.legacy``), each sealing every 25 documents or never:
    doc-id ranges interleave across the loaded segments, which carry the
    shards' tombstones."""

    def build() -> Case:
        everything, live = churned_docs(10 + shard_count)
        config = SegmentConfig(seal_document_count=25) if sealing else None
        history = ShardedHistory(
            "imported", shard_count, Analyzer(stemming=False), config
        )
        for doc_id, terms in everything.items():
            assert history.add_document(" ".join(terms)) == doc_id
        for doc_id in set(everything) - set(live):
            history.remove_document(doc_id)
        assert all(part.document_count for part in history.parts)
        assert bool(sum(part.tombstone_count() for part in history.parts)) == sealing
        collection = history.load()
        assert collection.segments.name == "imported"
        assert len(collection.segments.sealed_segments()) >= shard_count
        return Case(collection.index, live, collection=collection)

    return build


CASES = {
    "inverted": inverted_case,
    "compact": compact_case,
    "memtable": memtable_case,
    "sealed-tombstoned": sealed_tombstoned_case,
    "segments-before-merge": segments_before_merge_case,
    "segments-mid-merge": segments_mid_merge_case,
    "segments-after-merge": segments_after_merge_case,
    "segments-after-compact": segments_after_compact_case,
    "shards-import-1-segmented": shards_import_case(1, True),
    "shards-import-2-segmented": shards_import_case(2, True),
    "shards-import-4-segmented": shards_import_case(4, True),
    "shards-import-1-memtable": shards_import_case(1, False),
    "shards-import-2-memtable": shards_import_case(2, False),
    "shards-import-4-memtable": shards_import_case(4, False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reads_like_a_fresh_monolithic_rebuild(name):
    run_case(CASES[name]())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    ops=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=30),
)
def test_random_segment_lifecycles_read_like_a_rebuild(seed, ops):
    """Adds, removes and compactions in any order, tiny seal threshold."""
    rng = random.Random(seed)
    manager = SegmentManager("prop", SegmentConfig(seal_document_count=3, tier_fanout=3))
    view = UnionIndexView(manager)
    docs: Dict[int, List[str]] = {}
    next_id = 1
    for op in ops:
        if op == 0 or not docs:
            docs[next_id] = random_terms(rng)
            manager.add_document(next_id, docs[next_id])
            next_id += 1
        elif op == 1:
            victim = rng.choice(sorted(docs))
            manager.remove_document(victim)
            del docs[victim]
        else:
            manager.compact()
    check_index(view, rebuild(docs))


# ---------------------------------------------------------------------------
# Whole-index reads that must not park postings in the per-version memo
# ---------------------------------------------------------------------------

VIEW_CASES = sorted(name for name in CASES if name.startswith(("segments-", "shards-")))


def legacy_indexed_bytes(index) -> int:
    """``indexed_bytes`` as it was computed from the postings themselves."""
    total = 0
    for term in index.terms():
        total += len(term.encode("utf-8"))
        for posting in index.postings(term):
            total += 8 + 8 * len(posting.positions)
    return total


class TestWholeIndexReadsLeaveTheMemoEmpty:
    @pytest.mark.parametrize(
        "name",
        ["segments-before-merge", "shards-import-2-segmented", "shards-import-2-memtable"],
    )
    def test_indexed_bytes_reads_counters_only(self, name):
        case = CASES[name]()
        assert case.collection.indexed_bytes() == legacy_indexed_bytes(rebuild(case.docs))
        assert case.subject._merged_postings == {}

    def test_indexed_bytes_of_an_unsealed_collection(self):
        """A default collection of a few hundred documents never seals:
        its counters come from the memtable alone."""
        collection = IRSCollection("plain", Analyzer(stemming=False))
        everything, live = churned_docs(20)
        for terms in everything.values():
            collection.add_document(" ".join(terms))
        for doc_id in set(everything) - set(live):
            collection.remove_document(doc_id)
        assert not collection.segments.sealed_segments()
        assert collection.indexed_bytes() == legacy_indexed_bytes(rebuild(live))
        assert collection.index._merged_postings == {}

    @pytest.mark.parametrize("name", VIEW_CASES)
    def test_payload_streams_past_the_memo_and_round_trips(self, name):
        case = CASES[name]()
        payload = case.subject.to_payload()
        assert case.subject._merged_postings == {}
        reference = rebuild(case.docs)
        check_index(InvertedIndex.from_payload(payload), reference)
        assert payload == {
            "doc_lengths": {str(d): len(t) for d, t in case.docs.items()},
            "postings": {
                term: {str(p.doc_id): p.positions for p in reference.postings(term)}
                for term in sorted(reference.terms())
            },
        }
