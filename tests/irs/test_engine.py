"""IRS engine: collections, querying, counters."""

import pytest

from repro import obs
from repro.errors import DuplicateCollectionError, UnknownCollectionError
from repro.irs.engine import IRSEngine


@pytest.fixture
def engine():
    e = IRSEngine()
    e.create_collection("paras")
    e.index_document("paras", "the www grows", {"oid": "OID1"})
    e.index_document("paras", "nii policy debate", {"oid": "OID2"})
    e.index_document("paras", "www and nii together", {"oid": "OID3"})
    return e


class TestCollections:
    def test_duplicate_collection_rejected(self, engine):
        with pytest.raises(DuplicateCollectionError):
            engine.create_collection("paras")

    def test_unknown_collection_rejected(self, engine):
        with pytest.raises(UnknownCollectionError):
            engine.query("nope", "www")

    def test_drop(self, engine):
        engine.drop_collection("paras")
        assert not engine.has_collection("paras")
        with pytest.raises(UnknownCollectionError):
            engine.drop_collection("paras")

    def test_collection_names_sorted(self, engine):
        engine.create_collection("alpha")
        assert engine.collection_names() == ["alpha", "paras"]


class TestQuerying:
    def test_query_returns_values(self, engine):
        result = engine.query("paras", "www")
        oids = result.by_metadata(engine.collection("paras"), "oid")
        assert set(oids) == {"OID1", "OID3"}

    def test_ranked_sorted_desc(self, engine):
        ranked = engine.query("paras", "www").ranked()
        values = [v for _d, v in ranked]
        assert values == sorted(values, reverse=True)

    def test_model_selection(self, engine):
        boolean = engine.query("paras", "www", model="boolean")
        assert set(boolean.values.values()) == {1.0}

    def test_unknown_model_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.query("paras", "www", model="quantum")

    def test_unknown_default_model_rejected(self):
        with pytest.raises(ValueError):
            IRSEngine(default_model="quantum")

    def test_by_metadata_takes_max_over_shared_oid(self, engine):
        engine.index_document("paras", "www www www www", {"oid": "OID1"})
        values = engine.query("paras", "www").by_metadata(
            engine.collection("paras"), "oid"
        )
        raw = engine.query("paras", "www").values
        assert values["OID1"] == max(raw[1], raw[4])

    def test_by_metadata_keeps_values_exact(self, engine):
        result = engine.query("paras", "www")
        values = result.by_metadata(engine.collection("paras"), "oid")
        assert values == {"OID1": result.values[1], "OID3": result.values[3]}

    def test_no_match_gives_empty_mapping(self, engine):
        result = engine.query("paras", "nonexistentterm")
        assert result.by_metadata(engine.collection("paras"), "oid") == {}

    def test_documents_without_the_key_are_left_out(self):
        engine = IRSEngine()
        engine.create_collection("c")
        engine.index_document("c", "some www text")
        result = engine.query("c", "www")
        assert list(result.values) == [1]
        assert result.by_metadata(engine.collection("c"), "oid") == {}


class TestCounters:
    def test_counters_track_operations(self, engine):
        with obs.instrumentation() as (_tracer, metrics):
            engine.query("paras", "www")
            engine.query("paras", "nii")
            engine.index_document("paras", "more text", {})
            engine.remove_document("paras", 4)
        counters = metrics.snapshot()["counters"]
        assert counters["irs.query.executed"] == 2
        # Documents indexed: additions and replacements.
        assert counters["irs.index.additions"] + counters.get("irs.index.replacements", 0) == 1
        assert counters["irs.index.removals"] == 1

    def test_replace_counts_as_indexing(self, engine):
        with obs.instrumentation() as (_tracer, metrics):
            engine.replace_document("paras", 1, "new text")
        counters = metrics.snapshot()["counters"]
        assert counters.get("irs.index.additions", 0) + counters["irs.index.replacements"] == 1
