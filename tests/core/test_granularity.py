"""Granularity policies (Section 4.3)."""

import pytest

from repro import obs
from repro.core.granularity import (
    abstract_level,
    all_elements,
    document_level,
    element_type,
    equal_segments,
    leaf_level,
    standard_policies,
)


@pytest.fixture
def built(corpus_system):
    def build(policy):
        collection = policy.build(corpus_system.db)
        irs = corpus_system.engine.collection(collection.get("irs_name"))
        return collection, irs

    return corpus_system, build


class TestPolicies:
    def test_document_level_one_doc_per_mmfdoc(self, built):
        system, build = built
        _collection, irs = build(document_level())
        assert len(irs) == len(system.db.instances_of("MMFDOC"))

    def test_element_type_one_doc_per_para(self, built):
        system, build = built
        _collection, irs = build(element_type("PARA"))
        assert len(irs) == len(system.db.instances_of("PARA"))

    def test_leaf_level_covers_all_leaves(self, built):
        system, build = built
        _collection, irs = build(leaf_level())
        leaves = [
            e for e in system.db.instances_of("Element") if e.send("isLeaf")
        ]
        assert len(irs) == len(leaves)

    def test_equal_segments_multiplies_documents(self, built):
        system, build = built
        collection, irs = build(equal_segments(words=15))
        n_docs = len(system.db.instances_of("MMFDOC"))
        assert len(irs) > n_docs
        assert collection.get("segment_words") == 15

    def test_all_elements_is_most_redundant(self, built):
        system, build = built
        _c_doc, irs_doc = build(document_level())
        _c_all, irs_all = build(all_elements())
        assert irs_all.index.token_count > irs_doc.index.token_count

    def test_abstract_level_is_cheap(self, built):
        system, build = built
        _c_all, irs_all = build(all_elements())
        _c_abs, irs_abs = build(abstract_level())
        assert irs_abs.index.token_count < irs_all.index.token_count
        assert len(irs_abs) == len(irs_all)


class TestAnswerability:
    """Which query classes each granularity can answer directly."""

    def test_document_level_cannot_answer_paragraph_queries(self, built):
        system, build = built
        collection, _irs = build(document_level())
        para = system.db.instances_of("PARA")[0]
        assert not collection.send("containsObject", para)

    def test_element_level_answers_paragraph_queries_directly(self, built):
        system, build = built
        collection, _irs = build(element_type("PARA"))
        para = system.db.instances_of("PARA")[0]
        assert collection.send("containsObject", para)

    def test_document_queries_on_paragraph_collection_need_derivation(self, built):
        system, build = built
        collection, _irs = build(element_type("PARA"))
        doc = system.db.instances_of("MMFDOC")[0]
        with obs.instrumentation() as (_tracer, metrics):
            doc.send("getIRSValue", collection, "www")
        assert metrics.snapshot()["counters"]["coupling.derivations"] == 1


class TestStandardSet:
    def test_standard_policies_all_buildable(self, corpus_system):
        policies = standard_policies()
        assert len(policies) == 6
        names = set()
        for policy in policies:
            collection = policy.build(corpus_system.db)
            names.add(collection.get("irs_name"))
        assert len(names) == 6

    def test_policy_names_unique(self):
        names = [p.name for p in standard_policies()]
        assert len(set(names)) == len(names)
