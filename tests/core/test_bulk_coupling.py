"""Batched indexing through the coupling equals one call per document.

``core/updates._index`` hands the new documents of a window to
``IRSEngine.index_documents`` as one batch, flushed before any remove or
replace.  A reference system that applies every update on its own (the
eager policy) and indexes every document with its own engine call must end
with the same ``doc_map``, doc ids, segment stack and rankings after a
propagation window that interleaves INSERT, MODIFY and DELETE, and after a
re-``index`` of a collection that has members; and both rank like a
collection rebuilt fresh over the same objects.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import DocumentSystem
from repro.core.context import coupling_context
from repro.irs.engine import IRSEngine
from repro.irs.segments import SegmentConfig
from repro.irs.segments.segment import SealedSegment
from repro.sgml.mmf import mmf_dtd
from tests.irs.test_bulk_indexing import state

SPEC = "ACCESS p FROM p IN PARA"
WORDS = "telnet www nii gopher retrieval structure database hypermedia".split()
QUERIES = ["www", "#sum(www nii telnet)", "#and(www nii)", "#or(gopher #not(nii))",
           "#od2(www nii)"]
MODELS = ["inquery", "vector", "boolean"]


def text(seed: int) -> str:
    return " ".join(WORDS[(seed * 7 + i * i) % len(WORDS)] for i in range(3 + seed % 6))


def one_call_per_document(engine: IRSEngine) -> None:
    """Make ``engine`` index every document of a batch with its own call."""

    def index_documents(name, items):
        return [IRSEngine.index_documents(engine, name, [item])[0] for item in items]

    engine.index_documents = index_documents


def build(one_by_one: bool):
    system = DocumentSystem()
    system.register_dtd(mmf_dtd())
    system.engine.segment_config = SegmentConfig(seal_document_count=4, seal_token_count=40)
    # The window logs every operation as made, as the eager reference runs it.
    coupling_context(system.db).cancellation_enabled = False
    if one_by_one:
        one_call_per_document(system.engine)
    db = system.db
    with db.begin():
        paras = [db.create_object("PARA", tag="PARA", content=text(i)) for i in range(11)]
    collection = system.session.create_collection(
        "paras", SPEC, update_policy="deferred", segment_words=4
    )
    system.session.index(collection)
    if one_by_one:
        collection.set("update_policy", "eager")
    return system, collection, paras


def window(system, collection, paras):
    """One propagation window: INSERT, MODIFY (same shape and new shape)
    and DELETE interleaved.  Deleted members are deleted objects, so the
    members stay exactly the PARA objects a fresh rebuild indexes."""
    db = system.db
    fresh = []

    def insert(seed):
        obj = db.create_object("PARA", tag="PARA", content=text(seed))
        fresh.append(obj)
        collection.send("insertObject", obj)

    insert(20)
    insert(21)
    # The last member's documents wait in the memtable; the inserts before
    # this delete must seal them first, as one call per document does.
    collection.send("deleteObject", paras[10])
    db.delete_object(paras[10])
    system.loader.update_content(paras[0], text(6))  # one piece, as before
    collection.send("modifyObject", paras[0])
    insert(22)
    collection.send("deleteObject", paras[3])
    db.delete_object(paras[3])
    system.loader.update_content(paras[5], text(30))  # one piece, was two
    collection.send("modifyObject", paras[5])
    for seed in range(23, 28):
        insert(seed)
    collection.send("deleteObject", paras[7])
    db.delete_object(paras[7])
    insert(28)
    collection.send("modifyObject", fresh[-1])  # inserted in this window
    collection.send("propagateUpdates")


def observed(system, collection):
    irs = system.engine.collection(collection.get("irs_name"))
    return {
        "doc_map": collection.get("doc_map"),
        "documents": [(d.doc_id, d.text, d.metadata) for d in irs.documents()],
        "segments": state(irs.segments),
    }


def rankings(system, collection):
    return {
        (query, model): system.session.query(collection, query, model=model).to_dict()
        for query in QUERIES
        for model in MODELS
    }


def assert_ranks_like_a_fresh_rebuild(system, collection, name):
    fresh = system.session.create_collection(name, SPEC, segment_words=4)
    system.session.index(fresh)
    for key, values in rankings(system, collection).items():
        expected = system.session.query(fresh, key[0], model=key[1]).to_dict()
        assert values == pytest.approx(expected, abs=1e-9), key


@pytest.mark.parametrize("stage", ["window", "reindex"])
def test_batches_equal_one_call_per_document_and_a_fresh_rebuild(stage, monkeypatch):
    bulk, collection, paras = build(one_by_one=False)
    reference, reference_collection, reference_paras = build(one_by_one=True)
    chunks = []
    invert = SealedSegment.from_documents.__func__
    monkeypatch.setattr(SealedSegment, "from_documents", classmethod(
        lambda cls, segment_id, documents: chunks.append(segment_id)
        or invert(cls, segment_id, documents)
    ))
    window(bulk, collection, paras)
    assert chunks  # the window's batches sealed chunks of their own
    window(reference, reference_collection, reference_paras)
    if stage == "reindex":
        assert collection.get("doc_map")
        del chunks[:]
        bulk.session.index(collection)
        reference.session.index(reference_collection)
        assert chunks
    assert observed(bulk, collection) == observed(reference, reference_collection)
    assert rankings(bulk, collection) == rankings(reference, reference_collection)
    assert_ranks_like_a_fresh_rebuild(bulk, collection, "fresh")


def test_counters_count_documents_and_the_segments_the_batch_seals():
    system, collection, _paras = build(one_by_one=False)
    irs = system.engine.collection(collection.get("irs_name"))
    documents, seals = len(irs), irs.segments.seals
    assert seals >= 3  # 11 objects, 4 words a piece, 4 documents a chunk
    with obs.instrumentation() as (_tracer, metrics):
        system.session.index(collection)
    counters = metrics.snapshot()["counters"]
    assert counters["irs.index.additions"] == len(irs) == documents
    assert counters["irs.segments.sealed"] == irs.segments.seals - seals >= 3
    assert irs.segments.memtable.document_count == documents % 4
