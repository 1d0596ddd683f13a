"""Derivation schemes (Section 4.5.2), incl. the Figure 4 experiment."""

import pytest

from repro.core import DocumentSystem
from repro.core.derivation import (
    component_values,
    derive_average,
    derive_maximum,
    register_scheme,
    scheme_named,
)
from repro.errors import CouplingError
from repro.workloads.figure4 import (
    EXPECTED_PAIRS,
    EXPECTED_RELEVANT,
    load_figure4,
    rank_documents,
    satisfied_pairs,
)


@pytest.fixture(scope="module")
def figure4():
    system = DocumentSystem()
    setup = load_figure4(system)
    setup["system"] = system
    return setup


class TestComponents:
    def test_components_are_indexed_descendants(self, figure4):
        m2 = figure4["roots"]["M2"]
        components = component_values(figure4["collection"], "www", m2)
        tags = {c.get("tag") for c, _v in components}
        assert tags == {"PARA"}
        assert len(components) == 2  # P4, P5

    def test_unmatched_components_contribute_zero(self, figure4):
        m2 = figure4["roots"]["M2"]
        components = component_values(figure4["collection"], "www", m2)
        values = sorted(v for _c, v in components)
        assert values[0] == 0.0  # P5 has no www
        assert values[1] > 0.0   # P4 has www

    def test_leaf_object_has_no_components(self, figure4):
        p4 = figure4["paragraphs"]["P4"]
        assert component_values(figure4["collection"], "www", p4) == []
        assert derive_maximum(figure4["collection"], "www", p4) == 0.0


class TestSchemeBasics:
    def test_known_schemes(self):
        for expected in (
            "maximum", "average", "weighted_type", "length_weighted",
            "subquery", "subquery_locality",
        ):
            assert callable(scheme_named(expected))

    def test_unknown_scheme_raises(self):
        with pytest.raises(CouplingError):
            scheme_named("nope")

    def test_register_custom_scheme(self, figure4):
        register_scheme("constant", lambda coll, query, obj: 0.42)
        try:
            figure4["collection"].set("derivation", "constant")
            figure4["collection"].set("buffer", {})
            value = figure4["roots"]["M1"].send(
                "deriveIRSValue", figure4["collection"], "www"
            )
            assert value == 0.42
        finally:
            from repro.core.derivation import _SCHEMES

            _SCHEMES.pop("constant", None)

    def test_maximum_at_least_average(self, figure4):
        collection = figure4["collection"]
        for root in figure4["roots"].values():
            assert derive_maximum(collection, "www", root) >= derive_average(
                collection, "www", root
            )

    def test_weighted_type_weights_respected(self, figure4):
        collection = figure4["collection"]
        m3 = figure4["roots"]["M3"]
        collection.set("type_weights", {"PARA": 0.0})
        try:
            from repro.core.derivation import derive_weighted_type

            assert derive_weighted_type(collection, "www", m3) == 0.0
        finally:
            collection.set("type_weights", {})


class TestFigure4:
    """The worked example of Section 4.5.2, quantitatively."""

    def test_paragraph_winner_is_p4(self, figure4):
        from repro.core.collection import _get_irs_result

        values = _get_irs_result(figure4["collection"], "#and(WWW NII)")
        best = max(values, key=values.get)
        assert best == figure4["paragraphs"]["P4"].oid

    def test_maximum_cannot_separate_m3_from_m1(self, figure4):
        ranking = dict(
            rank_documents(figure4["roots"], figure4["collection"], "#and(WWW NII)", "maximum")
        )
        assert ranking["M3"] == pytest.approx(ranking["M1"])

    def test_average_demotes_m2(self, figure4):
        ranking = rank_documents(
            figure4["roots"], figure4["collection"], "#and(WWW NII)", "average"
        )
        assert ranking[0][0] != "M2"

    def test_subquery_separates_m3_from_m4(self, figure4):
        ranking = dict(
            rank_documents(figure4["roots"], figure4["collection"], "#and(WWW NII)", "subquery")
        )
        assert ranking["M3"] > ranking["M4"]

    def test_subquery_ranks_relevant_documents_top(self, figure4):
        ranking = rank_documents(
            figure4["roots"], figure4["collection"], "#and(WWW NII)", "subquery"
        )
        top_two = {name for name, _v in ranking[:2]}
        assert top_two == set(EXPECTED_RELEVANT)

    def test_subquery_locality_satisfies_all_paper_constraints(self, figure4):
        ranking = rank_documents(
            figure4["roots"], figure4["collection"], "#and(WWW NII)", "subquery_locality"
        )
        assert satisfied_pairs(ranking) == EXPECTED_PAIRS

    def test_no_fixed_scheme_is_best_everywhere(self, figure4):
        # For the single-term query, maximum behaves perfectly well —
        # scheme choice is application semantics, the paper's core claim.
        ranking = dict(
            rank_documents(figure4["roots"], figure4["collection"], "WWW", "maximum")
        )
        assert ranking["M1"] > ranking["M4"]
        assert ranking["M2"] > ranking["M4"]
