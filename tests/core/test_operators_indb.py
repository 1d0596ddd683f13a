"""IRS operators duplicated as COLLECTION methods (Section 4.5.4).

The key property: combining buffered sub-results inside the OODBMS yields
the same ranking the IRS itself computes for the combined query.
"""

import pytest

from repro import obs
from repro.core.collection import _get_irs_result


def ranked(values):
    return sorted(values, key=lambda oid: (-values[oid], oid))


class TestEquivalenceWithIRS:
    def test_and_matches_irs_combined_query(self, mmf_system, para_collection):
        in_db = para_collection.send("IRSOperatorAND", "www", "nii")
        via_irs = _get_irs_result(para_collection, "#and(www nii)")
        assert set(in_db) >= set(via_irs)
        for oid in via_irs:
            assert in_db[oid] == pytest.approx(via_irs[oid])

    def test_or_matches_irs_combined_query(self, mmf_system, para_collection):
        in_db = para_collection.send("IRSOperatorOR", "www", "nii")
        via_irs = _get_irs_result(para_collection, "#or(www nii)")
        for oid in via_irs:
            assert in_db[oid] == pytest.approx(via_irs[oid])

    def test_sum_matches_irs_combined_query(self, mmf_system, para_collection):
        in_db = para_collection.send("IRSOperatorSUM", "www", "nii")
        via_irs = _get_irs_result(para_collection, "#sum(www nii)")
        for oid in via_irs:
            assert in_db[oid] == pytest.approx(via_irs[oid])

    def test_max_matches_irs_combined_query(self, mmf_system, para_collection):
        in_db = para_collection.send("IRSOperatorMAX", "www", "nii")
        via_irs = _get_irs_result(para_collection, "#max(www nii)")
        for oid in via_irs:
            assert in_db[oid] == pytest.approx(via_irs[oid])

    def test_wsum_matches_irs_combined_query(self, mmf_system, para_collection):
        in_db = para_collection.send("IRSOperatorWSUM", 2, "www", 1, "nii")
        via_irs = _get_irs_result(para_collection, "#wsum(2 www 1 nii)")
        for oid in via_irs:
            assert in_db[oid] == pytest.approx(via_irs[oid])

    def test_ranking_identical(self, mmf_system, para_collection):
        in_db = para_collection.send("IRSOperatorSUM", "www", "nii")
        via_irs = _get_irs_result(para_collection, "#sum(www nii)")
        shared = [oid for oid in ranked(in_db) if oid in via_irs]
        assert shared == ranked(via_irs)


class TestBufferedEvaluation:
    def test_combination_reuses_buffered_subresults(self, mmf_system, para_collection):
        _get_irs_result(para_collection, "www")
        _get_irs_result(para_collection, "nii")
        with obs.instrumentation() as (_tracer, metrics):
            para_collection.send("IRSOperatorAND", "www", "nii")
        assert metrics.counter("irs.query.executed").value == 0

    def test_resubmission_costs_an_irs_call(self, mmf_system, para_collection):
        _get_irs_result(para_collection, "www")
        _get_irs_result(para_collection, "nii")
        with obs.instrumentation() as (_tracer, metrics):
            _get_irs_result(para_collection, "#and(www nii)")
        assert metrics.counter("irs.query.executed").value == 1


class TestNotOperator:
    def test_not_ranges_over_members(self, mmf_system, para_collection):
        result = para_collection.send("IRSOperatorNOT", "telnet")
        assert len(result) == para_collection.send("memberCount")

    def test_not_penalizes_matching_documents(self, mmf_system, para_collection):
        matches = _get_irs_result(para_collection, "telnet")
        result = para_collection.send("IRSOperatorNOT", "telnet")
        matching_values = [result[oid] for oid in matches]
        other_values = [v for oid, v in result.items() if oid not in matches]
        assert max(matching_values) < min(other_values)


class TestArgumentValidation:
    def test_wsum_odd_arguments_rejected(self, mmf_system, para_collection):
        with pytest.raises(ValueError):
            para_collection.send("IRSOperatorWSUM", 2, "www", 1)
