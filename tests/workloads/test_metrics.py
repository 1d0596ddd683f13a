"""Retrieval metrics."""

import pytest

from repro.workloads import metrics


class TestPrecisionRecall:
    def test_precision_at_k(self):
        assert metrics.precision_at_k(["a", "b", "c"], ["a", "c"], 2) == 0.5
        assert metrics.precision_at_k(["a", "b"], ["a", "b"], 2) == 1.0

    def test_precision_k_beyond_results(self):
        assert metrics.precision_at_k(["a"], ["a"], 5) == 1.0

    def test_precision_invalid_k(self):
        with pytest.raises(ValueError):
            metrics.precision_at_k(["a"], ["a"], 0)

    def test_recall(self):
        assert metrics.recall(["a", "b"], ["a", "c"]) == 0.5
        assert metrics.recall([], ["a"]) == 0.0
        assert metrics.recall(["a"], []) == 0.0

    def test_average_precision(self):
        # relevant at ranks 1 and 3: AP = (1/1 + 2/3) / 2
        assert metrics.average_precision(["a", "b", "c"], ["a", "c"]) == pytest.approx(
            (1 + 2 / 3) / 2
        )


class TestKendallTau:
    def test_identical_orders(self):
        assert metrics.kendall_tau(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_reversed_orders(self):
        assert metrics.kendall_tau(["a", "b", "c"], ["c", "b", "a"]) == -1.0

    def test_partial_agreement(self):
        tau = metrics.kendall_tau(["a", "b", "c"], ["a", "c", "b"])
        assert 0 < tau < 1

    def test_mismatched_items_rejected(self):
        with pytest.raises(ValueError):
            metrics.kendall_tau(["a"], ["b"])

    def test_single_item(self):
        assert metrics.kendall_tau(["a"], ["a"]) == 1.0


class TestTables:
    def test_format_table_aligns(self):
        table = metrics.format_table(
            ["name", "value"], [["alpha", 1.0], ["b", 22.5]]
        )
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "1.0000" in table

    def test_print_table(self, capsys):
        metrics.print_table("T", ["h"], [["row"]])
        out = capsys.readouterr().out
        assert "== T ==" in out
        assert "row" in out
