"""Retrieval models: boolean, vector, probabilistic behaviour."""

import pytest

from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.models.boolean import BooleanModel
from repro.irs.models.probabilistic import DEFAULT_BELIEF, InferenceNetworkModel
from repro.irs.models.reference import NaiveInferenceNetworkModel
from repro.irs.models.vector import VectorSpaceModel
from repro.irs.queries import parse_irs_query


@pytest.fixture
def collection():
    c = IRSCollection("test", Analyzer(stemming=False))
    c.add_document("www browser www pages")          # 1: heavy www
    c.add_document("nii policy funding")             # 2: nii only
    c.add_document("www nii infrastructure")         # 3: both
    c.add_document("cooking pasta water boiling")    # 4: neither
    return c


def score(model, collection, text, default="sum"):
    return model.score(collection, parse_irs_query(text, default_operator=default))


class TestBooleanModel:
    def test_term_match(self, collection):
        result = score(BooleanModel(), collection, "www")
        assert set(result) == {1, 3}
        assert all(v == 1.0 for v in result.values())

    def test_and(self, collection):
        assert set(score(BooleanModel(), collection, "#and(www nii)")) == {3}

    def test_or(self, collection):
        assert set(score(BooleanModel(), collection, "#or(www nii)")) == {1, 2, 3}

    def test_not(self, collection):
        assert set(score(BooleanModel(), collection, "#and(www #not(nii))")) == {1}

    def test_bare_terms_default_to_and(self, collection):
        result = score(BooleanModel(), collection, "www nii", default="and")
        assert set(result) == {3}

    def test_unknown_term_matches_nothing(self, collection):
        assert score(BooleanModel(), collection, "zzz") == {}


class TestVectorModel:
    def test_scores_in_unit_interval(self, collection):
        result = score(VectorSpaceModel(), collection, "www nii")
        assert result
        assert all(0.0 <= v <= 1.0 for v in result.values())

    def test_tf_matters(self, collection):
        result = score(VectorSpaceModel(), collection, "www")
        assert result[1] > 0 and result[3] > 0

    def test_both_terms_ranked_first(self, collection):
        result = score(VectorSpaceModel(), collection, "www nii")
        assert max(result, key=result.get) == 3

    def test_not_subtracts(self, collection):
        plain = score(VectorSpaceModel(), collection, "www")
        negated = score(VectorSpaceModel(), collection, "#sum(www #not(nii))")
        # Document 3 (www+nii) should fall relative to document 1.
        assert (negated.get(3, 0) - negated.get(1, 0)) < (plain[3] - plain[1])

    def test_empty_query_after_stopwords(self):
        c = IRSCollection("s", Analyzer())
        c.add_document("content here")
        assert VectorSpaceModel().score(c, parse_irs_query("the")) == {}


class TestInferenceModel:
    def test_values_above_default_belief(self, collection):
        result = score(InferenceNetworkModel(), collection, "www")
        assert set(result) == {1, 3}
        assert all(v > DEFAULT_BELIEF for v in result.values())

    def test_tf_and_length_matter(self, collection):
        result = score(InferenceNetworkModel(), collection, "www")
        assert result[1] > result[3]  # doc 1 has www twice

    def test_and_rewards_coverage(self, collection):
        result = score(InferenceNetworkModel(), collection, "#and(www nii)")
        assert max(result, key=result.get) == 3

    def test_baseline_respects_structure(self):
        model = InferenceNetworkModel()
        and_baseline = model.baseline(parse_irs_query("#and(a b)"))
        assert and_baseline == pytest.approx(DEFAULT_BELIEF**2)
        not_baseline = model.baseline(parse_irs_query("#not(a)"))
        assert not_baseline == pytest.approx(1 - DEFAULT_BELIEF)

    def test_wsum_weights_shift_ranking(self, collection):
        www_heavy = score(InferenceNetworkModel(), collection, "#wsum(5 www 1 nii)")
        nii_heavy = score(InferenceNetworkModel(), collection, "#wsum(1 www 5 nii)")
        assert www_heavy[1] > nii_heavy.get(1, 0)

    def test_max_operator(self, collection):
        result = score(InferenceNetworkModel(), collection, "#max(www nii)")
        assert set(result) == {1, 2, 3}

    def test_invalid_default_belief(self):
        with pytest.raises(ValueError):
            InferenceNetworkModel(default_belief=1.5)

    def test_term_belief_for_absent_doc_is_default(self, collection):
        model = NaiveInferenceNetworkModel()
        assert model._naive_term_belief(collection, "www", 4) == DEFAULT_BELIEF

    def test_stopword_query_term_is_default(self, collection):
        model = NaiveInferenceNetworkModel()
        assert model._naive_term_belief(collection, "the", 1) == DEFAULT_BELIEF
