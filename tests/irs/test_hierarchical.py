"""Hierarchical scoring: one leaf index answers every level exactly."""

import pytest

from repro.core.collection import _get_irs_result
from repro.core.granularity import document_level, element_type, leaf_level
from repro.core.hierarchical import (
    derive_hierarchical_exact,
    hierarchical_result,
    invalidate_scorer,
    scorer_for,
)


@pytest.fixture
def setup(corpus_system):
    leaf = leaf_level().build(corpus_system.db)
    return corpus_system, leaf


class TestAggregation:
    def test_subtree_tf_sums_leaves(self, setup):
        system, leaf = setup
        scorer = scorer_for(leaf)
        doc = system.db.instances_of("MMFDOC")[0]
        leaf_tf = sum(
            scorer.subtree_tf("www", para)
            for para in doc.send("getDescendants")
            if para.send("isLeaf")
        )
        assert scorer.subtree_tf("www", doc) == leaf_tf

    def test_subtree_length_sums_leaves(self, setup):
        system, leaf = setup
        scorer = scorer_for(leaf)
        doc = system.db.instances_of("MMFDOC")[0]
        total = sum(
            scorer.subtree_length(element)
            for element in doc.send("getDescendants")
            if element.send("isLeaf")
        )
        assert scorer.subtree_length(doc) == total

    def test_stopped_term_zero(self, setup):
        _system, leaf = setup
        scorer = scorer_for(leaf)
        doc = _system.db.instances_of("MMFDOC")[0]
        assert scorer.subtree_tf("the", doc) == 0


class TestExactness:
    @pytest.mark.parametrize("query", ["www", "#and(www nii)", "#or(telnet database)"])
    def test_matches_direct_document_index(self, setup, query):
        system, leaf = setup
        direct = document_level().build(system.db, collection_name=f"direct_{hash(query) % 1000}")
        expected = _get_irs_result(direct, query)
        got = hierarchical_result(leaf, query, "MMFDOC")
        assert set(got) == set(expected)
        for oid, value in expected.items():
            assert got[oid] == pytest.approx(value, abs=1e-12)

    def test_matches_direct_paragraph_index(self, setup):
        system, leaf = setup
        direct = element_type("PARA").build(system.db, collection_name="direct_para")
        expected = _get_irs_result(direct, "www")
        got = hierarchical_result(leaf, "www", "PARA")
        for oid, value in expected.items():
            assert got[oid] == pytest.approx(value, abs=1e-12)

    def test_storage_is_leaf_only(self, setup):
        system, leaf = setup
        from repro.core.granularity import all_elements

        full = all_elements().build(system.db, collection_name="full_cmp")
        leaf_bytes = system.engine.collection(leaf.get("irs_name")).indexed_bytes()
        full_bytes = system.engine.collection(full.get("irs_name")).indexed_bytes()
        assert leaf_bytes < full_bytes / 1.5


class TestDerivationScheme:
    def test_scheme_registered(self):
        from repro.core.derivation import scheme_named

        assert callable(scheme_named("hierarchical_exact"))

    def test_find_irs_value_uses_exact_derivation(self, setup):
        system, leaf = setup
        leaf.set("derivation", "hierarchical_exact")
        doc = system.db.instances_of("MMFDOC")[0]
        derived = leaf.send("findIRSValue", "www", doc)
        direct = document_level().build(system.db, collection_name="direct_fiv")
        expected = _get_irs_result(direct, "www").get(doc.oid, 0.0)
        if expected:
            assert derived == pytest.approx(expected, abs=1e-12)

    def test_derive_on_leaf_is_its_own_value(self, setup):
        system, leaf = setup
        para = system.db.instances_of("PARA")[0]
        value = derive_hierarchical_exact(leaf, "www", para)
        assert 0.0 <= value <= 1.0


class TestCaching:
    def test_scorer_cached_per_collection(self, setup):
        _system, leaf = setup
        assert scorer_for(leaf) is scorer_for(leaf)

    def test_invalidate_drops_cache(self, setup):
        _system, leaf = setup
        first = scorer_for(leaf)
        invalidate_scorer(leaf)
        assert scorer_for(leaf) is not first

    def test_level_stats_cached(self, setup):
        system, leaf = setup
        scorer = scorer_for(leaf)
        scorer._stats_for_level("MMFDOC", "www")
        assert ("MMFDOC", "www") in scorer._level_stats
        # A second call answers from the cache (same object identity check
        # is not possible on tuples; verify no recomputation by count).
        n_docs, df = scorer._stats_for_level("MMFDOC", "www")
        assert n_docs == len(system.db.instances_of("MMFDOC"))
        assert 0 <= df <= n_docs


class TestStalenessInvalidation:
    def test_update_propagation_invalidates_scorer(self, setup):
        system, leaf = setup
        scorer = scorer_for(leaf)
        # Add a paragraph containing a new word and propagate through the
        # collection's update methods.
        root = system.roots[0]
        para = system.loader.insert_element(root, "PARA", "zeppelin sightings increase")
        leaf.send("insertObject", para)
        leaf.send("propagateUpdates")
        fresh = scorer_for(leaf)
        assert fresh is not scorer  # cache dropped
        doc = para.send("getContaining", "MMFDOC")
        assert fresh.subtree_tf("zeppelin", doc) > 0

    def test_reindex_invalidates_scorer(self, setup):
        system, leaf = setup
        scorer = scorer_for(leaf)
        from repro.core.collection import index_objects

        index_objects(leaf)
        assert scorer_for(leaf) is not scorer
