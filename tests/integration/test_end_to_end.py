"""Whole-stack integration: documents in, coupled retrieval out."""

import pytest

from repro.core import DocumentSystem
from repro.core.collection import _create_collection, _get_irs_result, index_objects
from repro.sgml.mmf import build_document, mmf_dtd
from repro.workloads.corpus import CorpusGenerator, load_corpus


class TestOverlappingCollections:
    """Figure 2: overlapping collections over one document base."""

    @pytest.fixture
    def two_collections(self, corpus_system):
        paras = _create_collection(
            corpus_system.db, "paras", "ACCESS p FROM p IN PARA"
        )
        index_objects(paras)
        docs = _create_collection(
            corpus_system.db, "docs", "ACCESS d FROM d IN MMFDOC",
            text_mode=0,
        )
        index_objects(docs)
        return corpus_system, paras, docs

    def test_object_in_two_collections_with_different_text(self, two_collections):
        system, paras, docs = two_collections
        para = system.db.instances_of("PARA")[0]
        doc = para.send("getContaining", "MMFDOC")
        assert paras.send("containsObject", para)
        assert docs.send("containsObject", doc)

    def test_same_query_different_context(self, two_collections):
        system, paras, docs = two_collections
        para_result = _get_irs_result(paras, "www")
        doc_result = _get_irs_result(docs, "www")
        # Values are keyed by different object populations.
        para_classes = {system.db.get_object(oid).class_name for oid in para_result}
        doc_classes = {system.db.get_object(oid).class_name for oid in doc_result}
        assert para_classes <= {"PARA"}
        assert doc_classes <= {"MMFDOC"}

    def test_collections_are_independent(self, two_collections):
        system, paras, docs = two_collections
        _get_irs_result(paras, "www")
        assert paras.get("buffer")
        assert not docs.get("buffer")


class TestRetrievalModelExchangeability:
    """Section 3: boolean, vector and probabilistic IRSs behind one coupling."""

    @pytest.mark.parametrize("model", ["boolean", "vector", "inquery"])
    def test_coupling_works_with_every_model(self, corpus_system, model):
        collection = _create_collection(
            corpus_system.db, f"coll_{model}", "ACCESS p FROM p IN PARA",
            model=model,
        )
        index_objects(collection)
        values = _get_irs_result(collection, "www")
        assert values
        assert all(0 < v <= 1 for v in values.values())

    def test_mixed_query_independent_of_model(self, corpus_system):
        results = {}
        for model in ("boolean", "inquery"):
            collection = _create_collection(
                corpus_system.db, f"c_{model}", "ACCESS p FROM p IN PARA",
                model=model,
            )
            index_objects(collection)
            rows = corpus_system.db.query(
                "ACCESS p FROM p IN PARA WHERE p -> getIRSValue(c, 'www') > 0.0",
                {"c": collection},
            )
            results[model] = {str(r[0].oid) for r in rows}
        # boolean retrieves exactly the www paragraphs; inquery at > 0 too.
        assert results["boolean"] == results["inquery"]


class TestDurability:
    def test_full_stack_survives_restart(self, tmp_path):
        path = str(tmp_path)
        generator = CorpusGenerator(seed=3)
        with DocumentSystem(directory=path) as system:
            load_corpus(system, generator.corpus(documents=4))
            collection = _create_collection(
                system.db, "collPara", "ACCESS p FROM p IN PARA"
            )
            index_objects(collection)
            before = _get_irs_result(collection, "www")
            collection_oid = collection.oid

        with DocumentSystem(directory=path) as reopened:
            revived = reopened.db.get_object(collection_oid)
            # Coupling state survived in the database ...
            assert revived.get("spec_query") == "ACCESS p FROM p IN PARA"
            buffered = revived.get("buffer")
            assert any("www" in key for key in buffered)
            assert revived.send("memberCount") == len(
                reopened.db.instances_of("PARA")
            )
            # ... and the IRS inverted index itself was reloaded from disk:
            # a *new* query (not buffered) answers identically.
            revived.set("buffer", {})
            assert _get_irs_result(revived, "www") == before

    def test_irs_engine_persistence_round_trip(self, tmp_path, corpus_system):
        from repro.store import SingleFileStore

        collection = _create_collection(
            corpus_system.db, "collPara", "ACCESS p FROM p IN PARA"
        )
        index_objects(collection)
        before = corpus_system.engine.query("collPara", "www").values
        path = str(tmp_path / "irs.store")
        with SingleFileStore(path) as store:
            store.checkpoint(corpus_system.engine)
        with SingleFileStore(path) as store:
            restored = store.load_engine()
            assert restored.query("collPara", "www").values == before


class TestDocumentLifecycle:
    def test_add_query_delete_cycle(self, system):
        dtd = mmf_dtd()
        system.register_dtd(dtd)
        collection = _create_collection(
            system.db, "collPara", "ACCESS p FROM p IN PARA",
            update_policy="deferred",
        )
        root = system.add_document(
            build_document("Cycle", ["gopher protocol text here"]), dtd=dtd
        )
        index_objects(collection)
        assert _get_irs_result(collection, "gopher")

        # Delete the document; notify; the next query must not see it.
        for para in root.send("getDescendants", "PARA"):
            collection.send("deleteObject", para)
        system.delete_document(root)
        values = _get_irs_result(collection, "gopher")
        assert values == {}
