"""Relevance feedback: Rocchio expansion at IRS and coupling level."""

import pytest

from repro.core.collection import _get_irs_result
from repro.core.feedback import expand_collection_query, install_feedback_method
from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.engine import IRSEngine
from repro.irs.feedback import (
    FeedbackParameters,
    expand_query,
    rocchio_weights,
)
from repro.irs.queries import parse_irs_query


@pytest.fixture
def collection():
    c = IRSCollection("fb", Analyzer(stemming=False))
    c.add_document("www browser hypertext navigation pages")   # 1 relevant
    c.add_document("www server http protocol pages")           # 2 relevant
    c.add_document("cooking pasta water boiling dinner")       # 3 irrelevant
    c.add_document("nii policy funding infrastructure")        # 4 other topic
    return c


class TestRocchioWeights:
    def test_query_terms_always_weighted(self, collection):
        weights = rocchio_weights(collection, "www", relevant=[])
        assert weights["www"] == pytest.approx(1.0)

    def test_relevant_centroid_adds_terms(self, collection):
        weights = rocchio_weights(collection, "www", relevant=[1, 2])
        assert weights.get("pages", 0) > 0
        assert weights.get("hypertext", 0) > 0

    def test_non_relevant_subtracts(self, collection):
        with_neg = rocchio_weights(collection, "www", relevant=[1], non_relevant=[3])
        without = rocchio_weights(collection, "www", relevant=[1])
        assert with_neg.get("cooking", 0) < without.get("cooking", 0.0) + 1e-12

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            FeedbackParameters(expansion_terms=0)
        with pytest.raises(ValueError):
            FeedbackParameters(alpha=-1)


class TestExpandQuery:
    def test_produces_wsum(self, collection):
        expanded = expand_query(collection, "www", relevant=[1, 2])
        tree = parse_irs_query(expanded)
        assert tree.op == "wsum"
        assert "www" in [t.term for t in tree.children]

    def test_respects_expansion_budget(self, collection):
        params = FeedbackParameters(expansion_terms=3)
        expanded = expand_query(collection, "www", relevant=[1, 2], parameters=params)
        assert len(parse_irs_query(expanded).children) <= 3

    def test_no_feedback_returns_original(self, collection):
        assert expand_query(collection, "www", relevant=[]) != ""

    def test_expanded_query_finds_related_documents(self, collection):
        engine = IRSEngine()
        engine._collections["fb"] = collection
        original = engine.query("fb", "hypertext").values
        result = engine.query("fb", expand_query(collection, "hypertext", relevant=[1])).values
        # Document 2 shares 'www'/'pages' with the relevant document but not
        # 'hypertext': only the expanded query reaches it.
        assert 2 not in original
        assert 2 in result


class TestCouplingLevel:
    def test_expand_collection_query(self, mmf_system, para_collection):
        values = _get_irs_result(para_collection, "telnet")
        relevant = [mmf_system.db.get_object(oid) for oid in values]
        assert relevant
        expanded = expand_collection_query(para_collection, "telnet", relevant)
        assert expanded.startswith("#wsum(")
        # The expanded query is an ordinary IRS query: buffered, mixable.
        result = _get_irs_result(para_collection, expanded)
        assert result

    def test_derivation_only_objects_contribute_nothing(self, mmf_system, para_collection):
        doc = mmf_system.roots[0]  # not represented in the collection
        expanded = expand_collection_query(para_collection, "telnet", [doc])
        # Only the original term survives: no relevant IRS documents existed.
        tree = parse_irs_query(expanded)
        terms = tree.terms() if hasattr(tree, "terms") else []
        assert terms == ["telnet"]

    def test_install_method(self, mmf_system, para_collection):
        install_feedback_method(mmf_system.db)
        values = _get_irs_result(para_collection, "www")
        relevant = [mmf_system.db.get_object(oid) for oid in values]
        expanded = para_collection.send("expandQuery", "www", relevant)
        assert "www" in expanded
