"""The columnar read path: ``term_columns`` and what scoring no longer touches.

Scoring reads decoded ``(doc_ids, tfs)`` columns; ``Posting`` lists with
their positions are for proximity, passages and merges only.  These tests
pin the column contract on every scoring source and prove the separation:
a stream of ranked and structured queries decodes no position and leaves
the per-version merged-postings memo empty.
"""

from __future__ import annotations

import random

import pytest

from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.engine import IRSEngine
from repro.irs.postings import BLOCK_SIZE, CompactIndex
from repro.irs.segments import SegmentConfig
from tests.legacy import ShardedHistory

VOCABULARY = [f"w{i}" for i in range(40)]


def _texts(rng, count):
    return [
        " ".join(rng.choices(VOCABULARY, k=rng.randint(3, 25))) for _ in range(count)
    ]


def _fill(collection, seed=5, count=700, removals=120):
    rng = random.Random(seed)
    ids = [collection.add_document(text) for text in _texts(rng, count)]
    for doc_id in rng.sample(ids, removals):
        collection.remove_document(doc_id)
    return collection


def _columns(index, term):
    return [
        (doc_id, tf)
        for ids, tfs in index.term_columns(term)
        for doc_id, tf in zip(ids, tfs)
    ]


def _imported():
    """Filled as an older build's three shards, each sealing every 50
    documents, then opened as one manager."""
    history = ShardedHistory("c", 3, Analyzer(), SegmentConfig(seal_document_count=50))
    return _fill(history).load()


LAYOUTS = {
    "imported-shards": _imported,
    "memtable": lambda: _fill(IRSCollection("c", Analyzer())),
    "segmented": lambda: _fill(
        IRSCollection(
            "c", Analyzer(), segment_config=SegmentConfig(seal_document_count=150)
        )
    ),
}


class TestTermColumns:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_columns_are_the_live_postings(self, layout):
        collection = LAYOUTS[layout]()
        index = collection.index
        for term in VOCABULARY + ["absent"]:
            want = [(p.doc_id, p.tf) for p in index.postings(term)]
            assert sorted(_columns(index, term)) == want
        assert _columns(index, "absent") == []

    def test_one_pair_per_block_and_tombstones_filtered(self):
        collection = IRSCollection(
            "c", Analyzer(), segment_config=SegmentConfig(seal_document_count=10_000)
        )
        ids = [collection.add_document("alpha beta") for _ in range(3 * BLOCK_SIZE + 5)]
        collection.segments.seal()
        (segment,) = collection.segments.sealed_segments()
        assert [len(i) for i, _ in segment.term_columns("alpha")] == [
            BLOCK_SIZE, BLOCK_SIZE, BLOCK_SIZE, 5,
        ]
        # Tombstone the whole second block and one document of the last:
        # the block count does not move, the documents are gone.
        for doc_id in ids[BLOCK_SIZE : 2 * BLOCK_SIZE] + [ids[-1]]:
            collection.remove_document(doc_id)
        blocks = list(segment.term_columns("alpha"))
        assert [len(i) for i, _ in blocks] == [BLOCK_SIZE, 0, BLOCK_SIZE, 4]
        assert all(len(i) == len(t) for i, t in blocks)
        live = set(segment.forward)
        assert {d for i, _ in blocks for d in i} == live
        assert all(segment.doc_lengths[d] == 2 for d in live)

    def test_dict_form_yields_virtual_blocks(self):
        collection = IRSCollection("c", Analyzer())
        for _ in range(BLOCK_SIZE + 3):
            collection.add_document("alpha alpha beta")
        blocks = list(collection.index.term_columns("alpha"))
        assert [len(i) for i, _ in blocks] == [BLOCK_SIZE, 3]
        assert blocks[1][1] == [2, 2, 2]
        assert collection.index.doc_lengths[1] == 3

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_doc_lengths_cover_the_live_documents(self, layout):
        collection = LAYOUTS[layout]()
        index = collection.index
        lengths = index.doc_lengths
        assert sorted(lengths) == index.document_ids()
        assert all(lengths[d] == index.document_length(d) for d in lengths)


class TestScoringNeverMaterialisesPositions:
    def test_ranked_and_structured_queries_decode_no_position(self, monkeypatch):
        engine = IRSEngine(
            result_cache_size=0,
            segment_config=SegmentConfig(seal_document_count=200),
        )
        engine.create_collection("c")
        rng = random.Random(11)
        ids = [engine.index_document("c", text) for text in _texts(rng, 900)]
        for doc_id in rng.sample(ids, 60):
            engine.remove_document("c", doc_id)
        collection = engine.collection("c")
        assert len(collection.segments.sealed_segments()) >= 3

        calls = []
        original = CompactIndex._block_positions

        def counting(self, ordinal, block, tfs):
            calls.append(block)
            return original(self, ordinal, block, tfs)

        monkeypatch.setattr(CompactIndex, "_block_positions", counting)

        queries = set()
        while len(queries) < 300:
            terms = rng.sample(VOCABULARY, rng.randint(1, 4))
            shape = rng.choice(("plain", "sum", "wsum", "and", "or", "max", "not", "nested"))
            if shape == "plain":
                text = " ".join(terms)
            elif shape == "wsum":
                text = "#wsum(" + " ".join(f"{rng.choice((1, 2, -1))} {t}" for t in terms) + ")"
            elif shape == "not":
                text = f"#and({terms[0]} #not({terms[-1]}))"
            elif shape == "nested":
                text = f"#or(#and({' '.join(terms)}) #max({terms[0]} {terms[-1]}))"
            else:
                text = f"#{shape}(" + " ".join(terms) + ")"
            queries.add(text)
        for position, text in enumerate(sorted(queries)):
            for model in ("inquery", "vector", "boolean"):
                top_k = (None, 10)[position % 2]
                assert engine.query("c", text, model=model, top_k=top_k) is not None

        assert collection.index._merged_postings == {}
        assert calls == []

        # Proximity is what the position stream is for.
        engine.query("c", "#od3(w1 w2)", model="inquery")
        assert calls
