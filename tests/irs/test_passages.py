"""Passage retrieval ([SAB93]) and the passage derivation scheme."""

import pytest

from repro.core import DocumentSystem
from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection
from repro.irs.passages import Passage, PassageScorer
from repro.workloads.figure4 import load_figure4, rank_documents


@pytest.fixture
def scorer():
    collection = IRSCollection("bg", Analyzer(stemming=False))
    collection.add_document("www hypertext pages grow")
    collection.add_document("nii policy funding national")
    collection.add_document("general report text material")
    return PassageScorer(collection, window=6, stride=3)


class TestWindows:
    def test_window_geometry(self, scorer):
        text = " ".join(f"word{i}" for i in range(12))
        passages = scorer.passages(text, "word0")
        # tokens: 12, window 6, stride 3 -> starts 0,3,6 (end hits len at 6+6)
        assert [(p.start, p.end) for p in passages] == [(0, 6), (3, 9), (6, 12)]

    def test_short_text_single_window(self, scorer):
        passages = scorer.passages("www pages", "www")
        assert len(passages) == 1
        assert passages[0].end == 2

    def test_empty_text_no_passages(self, scorer):
        assert scorer.passages("", "www") == []
        assert scorer.best_passage("", "www") is None
        assert scorer.best_score("", "www") == 0.0

    def test_invalid_geometry(self):
        collection = IRSCollection("x")
        with pytest.raises(ValueError):
            PassageScorer(collection, window=0)
        with pytest.raises(ValueError):
            PassageScorer(collection, stride=0)

    def test_passage_len(self):
        assert len(Passage(3, 9, 0.5)) == 6


class TestScoring:
    def test_best_passage_finds_local_cooccurrence(self, scorer):
        # both terms close together in the middle of a long text
        filler = " ".join(["filler"] * 10)
        text = f"{filler} www nii together here {filler}"
        best = scorer.best_passage(text, "#and(www nii)")
        assert best is not None
        assert best.start >= 6  # the window containing the middle

    def test_spread_terms_score_lower_than_close_terms(self, scorer):
        close = "www nii " + " ".join(["pad"] * 20)
        spread = "www " + " ".join(["pad"] * 20) + " nii"
        assert scorer.best_score(close, "#and(www nii)") > scorer.best_score(
            spread, "#and(www nii)"
        )

    def test_scores_bounded(self, scorer):
        score = scorer.best_score("www www www nii nii nii", "#and(www nii)")
        assert 0.0 < score <= 1.0

    def test_unknown_term_treated_as_discriminative(self, scorer):
        score = scorer.best_score("zeppelin flies high", "zeppelin")
        assert score > 0.4

    def test_operator_queries(self, scorer):
        text = "www hypertext but no other topic"
        assert scorer.best_score(text, "#or(www nii)") > scorer.best_score(
            text, "#and(www nii)"
        )


class TestPassageDerivation:
    @pytest.fixture(scope="class")
    def figure4(self):
        system = DocumentSystem()
        setup = load_figure4(system)
        return setup

    def test_scheme_registered(self):
        from repro.core.derivation import scheme_named

        assert callable(scheme_named("passage"))

    def test_full_intuitive_order_on_figure4(self, figure4):
        """Passage retrieval yields M2 > M3 > M4 > M1 — the paper's Section 6
        intuition that the passage paradigm suits the derivation problem."""
        ranking = rank_documents(
            figure4["roots"], figure4["collection"], "#and(WWW NII)", "passage"
        )
        assert [name for name, _v in ranking] == ["M2", "M3", "M4", "M1"]

    def test_values_strictly_ordered(self, figure4):
        ranking = dict(
            rank_documents(
                figure4["roots"], figure4["collection"], "#and(WWW NII)", "passage"
            )
        )
        assert ranking["M2"] > ranking["M3"] > ranking["M4"] > ranking["M1"]
