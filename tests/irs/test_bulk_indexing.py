"""Bulk indexing equals indexing one document at a time, byte for byte.

``SegmentManager.add_documents`` inverts every seal-sized chunk of a
batch straight into a sealed segment; ``add_document`` fills the memtable
and seals it.  Cut at the same documents, the two must leave the same
segment stack: every kind-6 record, forward map, tombstone, ``doc_lengths``,
locator, token count and seal count.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.irs.collection import IRSCollection
from repro.irs.inverted_index import InvertedIndex
from repro.irs.postings import BLOCK_SIZE
from repro.irs.segments import SegmentConfig, SegmentManager

VOCABULARY = ["www", "nii", "telnet", "café", "日本語", "straße", "🙂", "x"]

documents = st.lists(st.sampled_from(VOCABULARY), max_size=8)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("one"), documents),
        st.tuples(st.just("batch"), st.lists(documents, max_size=12)),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
    ),
    max_size=12,
)
configs = st.builds(
    SegmentConfig,
    seal_document_count=st.integers(1, 6),
    seal_token_count=st.integers(1, 24),
)


def state(manager: SegmentManager) -> dict:
    """Everything a segment stack holds, in comparable form."""
    memtable = manager.memtable
    return {
        "sealed": [
            (s.segment_id, s.index.to_bytes(), s.forward, s.tombstones)
            for s in manager.sealed_segments()
        ],
        "memtable": (
            memtable.segment_id,
            [
                (term, [(p.doc_id, p.positions) for p in memtable.index.postings(term)])
                for term in memtable.index.terms()
            ],
            list(memtable.index.doc_lengths.items()),
            memtable.forward,
        ),
        "doc_lengths": manager.doc_lengths,
        "locator": {d: s.segment_id for d, s in manager._locator.items()},
        "token_count": manager.token_count,
        "seals": manager.seals,
        "structure": manager.structure,
    }


def replay(config: SegmentConfig, script, bulk: bool) -> SegmentManager:
    manager = SegmentManager("c", config)
    next_id = 1
    for kind, value in script:
        if kind == "remove":
            live = sorted(manager.doc_lengths)
            if live:
                manager.remove_document(live[value % len(live)])
            continue
        batch = [value] if kind == "one" else value
        numbered = [(next_id + i, terms) for i, terms in enumerate(batch)]
        next_id += len(batch)
        if bulk and kind == "batch":
            manager.add_documents(numbered)
        else:
            for doc_id, terms in numbered:
                manager.add_document(doc_id, terms)
    return manager


@settings(max_examples=300, deadline=None)
@given(configs, steps)
def test_bulk_batches_leave_the_stack_one_by_one_indexing_leaves(config, script):
    assert state(replay(config, script, bulk=True)) == state(replay(config, script, bulk=False))


def test_the_drawn_scripts_reach_every_case():
    """The cases the property must cover, each pinned once: a batch that
    enters a non-empty memtable, a chunk cut by ``seal_token_count``, empty
    documents, repeated and non-ASCII terms."""
    config = SegmentConfig(seal_document_count=4, seal_token_count=6)
    script = [
        ("one", ["café", "café"]),
        ("batch", [["www"], [], ["日本語", "www", "日本語"], ["nii"] * 5, [], ["🙂"]]),
        ("remove", 1),
        ("batch", [["x", "x", "x", "x", "x", "x", "x"], [], ["straße"]]),
    ]
    bulk = replay(config, script, bulk=True)
    assert state(bulk) == state(replay(config, script, bulk=False))
    # Docs 2-4 of the first batch fill the memtable doc 1 is in; docs 5-7
    # (3 documents, 6 tokens) and doc 8 (7 tokens) are chunks cut by
    # tokens; doc 2 was removed; docs 9-10 are the remainder.
    assert [sorted(s.forward) + sorted(s.tombstones) for s in bulk.sealed_segments()] == [
        [1, 3, 4, 2], [5, 6, 7], [8]
    ]
    assert sorted(bulk.memtable.forward) == [9, 10]


def test_full_chunks_never_touch_the_memtable(monkeypatch):
    """A batch of whole chunks into an empty memtable builds no dict-form
    posting; a chunk spans several blocks of a term in every document."""
    documents = [
        (doc_id, ["www"] + ["nii", f"t{doc_id % 7}"] * (doc_id % 3))
        for doc_id in range(1, 2 * 300 + 1)
    ]
    expected = SegmentManager("c", SegmentConfig(seal_document_count=300))
    for doc_id, terms in documents:
        expected.add_document(doc_id, terms)

    def refuse(*_args):
        raise AssertionError("bulk chunk went through the memtable")

    monkeypatch.setattr(InvertedIndex, "add_document", refuse)
    bulk = SegmentManager("c", SegmentConfig(seal_document_count=300))
    bulk.add_documents(documents)
    assert bulk.memtable.document_count == 0 and bulk.seals == 2
    blocks = list(bulk.sealed_segments()[0].index.term_columns("www"))
    assert [len(ids) for ids, _tfs in blocks] == [BLOCK_SIZE, BLOCK_SIZE, 300 - 2 * BLOCK_SIZE]
    assert state(bulk) == state(expected)


def test_a_batch_is_read_one_chunk_at_a_time():
    config = SegmentConfig(seal_document_count=5)
    manager = SegmentManager("c", config)
    seen = []

    def batch():
        for doc_id in range(1, 13):
            # Before document 6 is drawn, documents 1-5 are sealed.
            seen.append((doc_id, manager.seals))
            yield doc_id, ["www"]

    manager.add_documents(batch())
    assert seen == [(d, (d - 1) // 5) for d in range(1, 13)]
    assert manager.memtable.document_count == 2


def test_collection_batches_number_documents_like_single_adds():
    rng = random.Random(4)
    texts = [" ".join(rng.choices(["www", "nii", "telnet"], k=rng.randint(0, 9)))
             for _ in range(40)]
    config = SegmentConfig(seal_document_count=16)
    batched = IRSCollection("c", segment_config=config)
    single = IRSCollection("c", segment_config=config)
    assert batched.add_document("first", {"oid": "0"}) == 1
    assert batched.add_documents([(t, {"oid": str(i)}) for i, t in enumerate(texts)]) == list(
        range(2, 42)
    )
    single.add_document("first", {"oid": "0"})
    for i, text in enumerate(texts):
        single.add_document(text, {"oid": str(i)})
    assert state(batched.segments) == state(single.segments)
    assert [(d.doc_id, d.text, d.metadata) for d in batched.documents()] == [
        (d.doc_id, d.text, d.metadata) for d in single.documents()
    ]
