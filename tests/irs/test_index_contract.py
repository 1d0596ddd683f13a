"""The index read contract, checked once over every implementer.

A collection is a versioned list of *scoring sources* behind one logical
index (``repro.irs.view``).  Whatever holds the postings — the dict-form
``InvertedIndex``, a ``CompactIndex`` (encoded, read from the older JSON
index schema or parsed from its record), a memtable, a sealed segment
(with tombstones, written from a batch, or written by a fold) — must
answer the source contract exactly like an ``InvertedIndex`` built from
scratch over the same live documents: integer statistics exactly,
postings and columns identically.  The union view over a segment stack
(before, in the middle of and after a merge, after a checkpoint's
seal-and-fold, bulk-loaded, reopened from a store, or imported from an
older build's shard list) is the one full read surface, and answers it
for the live documents too.  Expected lengths, vectors and positions
come from each case's own documents.  One body (:func:`check_source`,
:func:`check_lookups`, :func:`check_index`, :func:`check_collection`)
runs over all of them; a new representation joins by adding one builder
to :data:`CASES`.  The view's documents written in the older JSON index
schema import through both readers and read the same.
"""

from __future__ import annotations

import os
import random
import tempfile
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.engine import IRSEngine
from repro.irs.inverted_index import InvertedIndex
from repro.irs.postings import BLOCK_SIZE, CompactIndex
from repro.irs.segments import SealedSegment, SegmentConfig, SegmentManager
from repro.irs.view import UnionIndexView
from repro.store import SingleFileStore
from tests.legacy import ShardedHistory, index_payload

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
    #: "source": what a scoring source owes the union view (a sealed
    #: segment); "part": that plus the ``term_frequency``/``positions`` the
    #: view reaches through ``index_of`` (what a segment holds its postings
    #: in); "index": the view's full read surface
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


def positions_in(terms: List[str], term: str) -> List[int]:
    return [position for position, word in enumerate(terms) if word == term]


def check_source(subject, reference: InvertedIndex, docs, context: str = "") -> None:
    """What every scoring source answers for its live documents ``docs``."""
    assert subject.posting_count == reference.posting_count, context
    assert sorted(subject.terms()) == sorted(reference.terms()), context
    lengths = subject.doc_lengths
    for doc_id, terms in docs.items():
        assert lengths[doc_id] == len(terms), context
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


def check_lookups(subject, docs, context: str = "") -> None:
    """``term_frequency``/``positions``, what the view reaches through
    ``index_of``."""
    for doc_id, terms in docs.items():
        for term, tf in Counter(terms).items():
            assert subject.term_frequency(term, doc_id) == tf, context
            assert subject.positions(term, doc_id) == positions_in(terms, term), context
        assert subject.term_frequency(ABSENT, doc_id) == 0, context
        assert subject.positions(ABSENT, doc_id) is None, context
    gone = max(docs, default=0) + 1000
    assert subject.term_frequency("common", gone) == 0, context
    assert subject.positions("common", gone) is None, context


def check_index(subject, reference: InvertedIndex, docs, context: str = "") -> None:
    """The view's full read surface over its live documents ``docs``."""
    check_source(subject, reference, docs, context)
    check_lookups(subject, docs, context)
    tokens = sum(len(terms) for terms in docs.values())
    assert subject.document_count == len(docs), context
    assert subject.token_count == tokens, context
    assert subject.term_count == len({term for terms in docs.values() for term in terms}), context
    assert subject.average_document_length == (tokens / len(docs) if docs else 0.0), context
    assert subject.document_ids() == sorted(docs), context
    assert sorted(subject.doc_lengths) == sorted(docs), context
    for doc_id, terms in docs.items():
        assert subject.document_length(doc_id) == len(terms), context
        assert subject.document_vector(doc_id) == Counter(terms), context
    assert subject.document_vector(max(docs, default=0) + 1000) == {}, context


def check_collection(collection: IRSCollection, reference: InvertedIndex, docs) -> None:
    """``scoring_sources()`` / ``index_version`` / ``forward_vector()``."""
    sources = collection.scoring_sources()
    for term in sorted(set(reference.terms()) | {ABSENT}):
        scanned = [pair for source in sources for pair in columns_of(source, term)]
        # Documents are unique across sources: no pair is scanned twice.
        assert sorted(scanned) == columns_of(reference, term), term
        for source in sources:
            for doc_id, _tf in columns_of(source, term):
                assert source.doc_lengths[doc_id] == len(docs[doc_id])
    for doc_id, terms in docs.items():
        assert collection.forward_vector(doc_id) == Counter(terms)
    version = collection.index_version
    hash(version)  # it keys memos
    assert collection.index_version == version, "reads do not move the version"


def run_case(case: Case) -> None:
    reference = rebuild(case.docs)
    if case.kind == "index":
        check_index(case.subject, reference, case.docs)
    else:
        check_source(case.subject, reference, case.docs)
    if case.kind == "part":
        check_lookups(case.subject, case.docs)
    for term, shape in (case.block_shapes or {}).items():
        assert [len(ids) for ids, _tfs in case.subject.term_columns(term)] == shape
    collection = case.collection
    if collection is None:
        return
    check_collection(collection, reference, case.docs)
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
    check_index(collection.index, reference, docs, "after writes")
    check_collection(collection, reference, docs)


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
    return Case(
        index, live, kind="part", block_shapes={"common": [BLOCK_SIZE, len(live) - BLOCK_SIZE]}
    )


def compact_case() -> Case:
    _, live = churned_docs(2)
    subject = CompactIndex.from_inverted(rebuild(live))
    return Case(
        subject, live, kind="part", block_shapes={"common": [BLOCK_SIZE, len(live) - BLOCK_SIZE]}
    )


def bulk_sealed_case() -> Case:
    """A sealed segment written straight from one batch (the bulk path)."""
    _, live = churned_docs(21)
    segment = SealedSegment.from_documents(0, sorted(live.items()))
    return Case(
        segment, live, kind="source",
        block_shapes={"common": [BLOCK_SIZE, len(live) - BLOCK_SIZE]},
    )


def json_imported_case() -> Case:
    """A compact index read from the older JSON index schema, as the
    importer reads it."""
    _, live = churned_docs(22)
    subject = CompactIndex.from_payload(index_payload(rebuild(live)))
    return Case(
        subject, live, kind="part", block_shapes={"common": [BLOCK_SIZE, len(live) - BLOCK_SIZE]}
    )


def bytes_reparsed_case() -> Case:
    """A compact index parsed back from its own kind-6 record."""
    _, live = churned_docs(23)
    record = CompactIndex.from_inverted(rebuild(live)).to_bytes()
    subject = CompactIndex.from_bytes(record)
    assert subject.to_bytes() == record
    return Case(
        subject, live, kind="part", block_shapes={"common": [BLOCK_SIZE, len(live) - BLOCK_SIZE]}
    )


def memtable_case() -> Case:
    everything, live = churned_docs(3)
    manager = SegmentManager("memtable", SegmentConfig(seal_document_count=10_000))
    for doc_id, terms in everything.items():
        manager.add_document(doc_id, terms)
    for doc_id in set(everything) - set(live):
        manager.remove_document(doc_id)  # physical: nothing is sealed
    assert not manager.sealed_segments()
    return Case(manager.memtable.index, live, kind="part")


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


#: Seals every 40 documents, so a churned collection spans many segments.
SEGMENTED = SegmentConfig(seal_document_count=40, tier_fanout=3)


def _segmented_collection(seed: int, collection: Optional[IRSCollection] = None):
    everything, live = churned_docs(seed)
    if collection is None:
        collection = IRSCollection(f"seg{seed}", Analyzer(stemming=False), SEGMENTED)
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


def segments_after_checkpoint_case() -> Case:
    """What a checkpoint leaves: the memtable sealed, then folded until
    ``select_candidates`` picks nothing."""
    collection, live = _segmented_collection(24)
    assert collection.segments.seal_and_fold() > 0
    assert collection.segments.memtable.document_count == 0
    return Case(collection.index, live, collection=collection)


def segments_merged_case() -> Case:
    """The segment a fold writes, read as a source on its own: its
    inputs' tombstoned documents are gone from it."""
    collection, live = _segmented_collection(25)
    inputs = collection.segments.sealed_segments()[:3]
    assert any(segment.tombstones for segment in inputs)
    merged = SealedSegment.merged(0, inputs)
    assert merged.tombstones == set()
    docs = {
        doc_id: live[doc_id]
        for segment in inputs
        for doc_id in segment.forward
        if doc_id not in segment.tombstones
    }
    return Case(merged, docs, kind="source")


def segments_bulk_loaded_case() -> Case:
    """A collection indexed in one batch — seal-sized chunks straight to
    sealed segments, the rest in the memtable — then churned."""
    everything, live = churned_docs(26)
    collection = IRSCollection("bulk", Analyzer(stemming=False), SEGMENTED)
    ids = collection.add_documents([(" ".join(terms), None) for terms in everything.values()])
    assert ids == list(everything)
    for doc_id in set(everything) - set(live):
        collection.remove_document(doc_id)
    manager = collection.segments
    assert len(manager.sealed_segments()) >= 5 and manager.tombstone_count()
    assert manager.memtable.document_count
    return Case(collection.index, live, collection=collection)


def segments_store_reopened_case() -> Case:
    """A churned collection checkpointed into a single-file store and
    loaded back: its segments are parsed kind-6 records."""
    engine = IRSEngine(analyzer=Analyzer(stemming=False), segment_config=SEGMENTED)
    _, live = _segmented_collection(27, engine.create_collection("stored"))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "irs.store")
        with SingleFileStore(path) as store:
            store.checkpoint(engine)
        with SingleFileStore(path) as store:
            collection = store.load_engine(lazy=False).collection("stored")
    assert collection.segments.sealed_segments()
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
    "compact-json-imported": json_imported_case,
    "compact-bytes-reparsed": bytes_reparsed_case,
    "memtable": memtable_case,
    "sealed-tombstoned": sealed_tombstoned_case,
    "sealed-bulk": bulk_sealed_case,
    "sealed-merged": segments_merged_case,
    "segments-before-merge": segments_before_merge_case,
    "segments-mid-merge": segments_mid_merge_case,
    "segments-after-merge": segments_after_merge_case,
    "segments-after-compact": segments_after_compact_case,
    "segments-after-checkpoint": segments_after_checkpoint_case,
    "segments-bulk-loaded": segments_bulk_loaded_case,
    "segments-store-reopened": segments_store_reopened_case,
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
    check_index(view, rebuild(docs), docs)


# ---------------------------------------------------------------------------
# Whole-index reads that must not park postings in the per-version memo
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# The older JSON index schema, written from the view, imports as it reads
# ---------------------------------------------------------------------------

VIEW_CASES = sorted(name for name in CASES if name.startswith(("segments-", "shards-")))


def view_payload(case: Case) -> dict:
    """The view's documents in the older JSON index schema
    (docs/storage-format.md), checked against the rebuild's postings."""
    payload = index_payload(case.subject)
    reference = rebuild(case.docs)
    assert payload == {
        "doc_lengths": {str(d): len(t) for d, t in case.docs.items()},
        "postings": {
            term: {str(p.doc_id): p.positions for p in reference.postings(term)}
            for term in sorted(reference.terms())
        },
    }
    return payload


class TestOlderJsonOfTheView:
    @pytest.mark.parametrize("name", VIEW_CASES)
    def test_imports_as_one_compact_index(self, name):
        case = CASES[name]()
        imported = CompactIndex.from_payload(view_payload(case))
        check_source(imported, rebuild(case.docs), case.docs)
        check_lookups(imported, case.docs)

    @pytest.mark.parametrize("name", VIEW_CASES)
    def test_opens_as_a_collection_of_one_segment(self, name):
        """``IRSCollection.from_payload`` over the view's JSON gives a
        collection that keeps the contract, further writes included."""
        case = CASES[name]()
        source = case.collection
        documents = source.documents()
        payload = {
            "name": source.name,
            "next_doc_id": max(doc.doc_id for doc in documents) + 1,
            "documents": [
                {
                    "doc_id": doc.doc_id,
                    "text": doc.text,
                    "metadata": doc.metadata,
                    "revision": doc.revision,
                }
                for doc in documents
            ],
            "segments": [{"index": view_payload(case), "tombstones": []}],
        }
        opened = IRSCollection.from_payload(payload, source.analyzer, SEGMENTED)
        assert len(opened.segments.sealed_segments()) == 1
        run_case(Case(opened.index, case.docs, collection=opened))
