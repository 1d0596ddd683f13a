"""``explain()`` on the paper's worked mixed queries, plus the slow log."""

import pytest

from repro import obs
from repro.core import DocumentSystem
from repro.core.collection import _create_collection, index_objects
from repro.obs.slowlog import SlowQueryLog
from repro.sgml.mmf import build_document, mmf_dtd

QUERY_ONE = (
    "ACCESS p, p -> length() FROM p IN PARA "
    "WHERE p -> getIRSValue (collPara, 'WWW') > 0.45;"
)

QUERY_TWO = (
    "ACCESS d -> getAttributeValue ('TITLE') "
    "FROM d IN MMFDOC, p1 IN PARA, p2 IN PARA "
    "WHERE d -> getAttributeValue ('YEAR') = '1994' AND "
    "p1 -> getNext() == p2 AND "
    "p1 -> getContaining ('MMFDOC') == d AND "
    "p1 -> getIRSValue (collPara, 'WWW') > 0.4 AND "
    "p2 -> getIRSValue (collPara, 'NII') > 0.4;"
)


@pytest.fixture(scope="module")
def journal():
    system = DocumentSystem()
    dtd = mmf_dtd()
    system.register_dtd(dtd)
    documents = [
        build_document(
            "Hit",
            [
                "the www hypertext web and browsers are growing",
                "the nii infrastructure funding policy debate continues",
                "completely unrelated filler paragraph text here",
            ],
            year="1994",
        ),
        build_document(
            "WrongOrder",
            [
                "the nii infrastructure network expands",
                "the www web keeps growing quickly",
            ],
            year="1994",
        ),
        build_document(
            "Together",
            ["the www and the nii converge in one paragraph"],
            year="1994",
        ),
    ]
    for document in documents:
        system.add_document(document, dtd=dtd)
    collection = _create_collection(system.db, "collPara", "ACCESS p FROM p IN PARA")
    index_objects(collection)
    return system, collection


class TestExplainOnPaperQueries:
    def test_query_one_rows_match_plain_execution(self, journal):
        system, collection = journal
        bindings = {"collPara": collection}
        result = system.explain(QUERY_ONE, bindings)
        assert result.rows == system.query(QUERY_ONE, bindings)

    def test_query_one_stage_tree_covers_all_layers(self, journal):
        system, collection = journal
        # Empty the persistent result buffer so the IRS engine is consulted
        # and the irs.query stage shows up in the trace.
        collection.set("buffer", {})
        result = system.explain(QUERY_ONE, {"collPara": collection})
        stages = result.stage_names()
        assert "oodb.query" in stages
        assert "oodb.query.candidates" in stages
        assert "oodb.query.join" in stages
        assert "coupling.findIRSValue" in stages
        assert "coupling.getIRSResult" in stages
        assert "irs.query" in stages

    def test_query_two_stage_tree_and_rows(self, journal):
        system, collection = journal
        result = system.explain(QUERY_TWO, {"collPara": collection})
        assert result.rows == [("Hit",)]
        stages = result.stage_names()
        assert {"oodb.query", "coupling.findIRSValue", "irs.query"} <= stages

    def test_spans_name_compiled_conjuncts_and_join_strategies(self, journal):
        system, collection = journal
        result = system.explain(QUERY_TWO, {"collPara": collection})
        spans = list(result.root.iter_spans())
        candidates = {
            s.attributes["variable"]: s.attributes
            for s in spans if s.name == "oodb.query.candidates"
        }
        paragraphs = system.db.extent_size("PARA")
        assert {v: a["compiled"] for v, a in candidates.items()} == {"d": 1, "p1": 1, "p2": 1}
        assert {v: a["decided"] for v, a in candidates.items()} == {
            "d": system.db.extent_size("MMFDOC"), "p1": paragraphs, "p2": paragraphs,
        }
        assert all(a["undecided"] == 0 for a in candidates.values())
        (join,) = [s for s in spans if s.name == "oodb.query.join"]
        assert join.attributes["strategy"] == "d:nested p1:hash p2:hash"
        assert join.attributes["tuples_examined"] == result.stats.tuples_examined
        # d, its PARAs through getContaining, at most one p2 each through getNext
        assert result.stats.tuples_examined <= 3 + 2 * paragraphs
        text = result.render()
        assert "d IN MMFDOC: compiled method" in text
        assert "hash p1 -> getNext(...) == p2" in text
        assert "hash p1 -> getContaining(...) == d" in text

    DOCUMENTS_ABOUT_WWW = (
        "ACCESS d FROM d IN MMFDOC WHERE d -> getAttributeValue('YEAR') = '1994' "
        "AND d -> getIRSValue(collPara, 'WWW') > 0.4"
    )

    def test_non_members_are_derived_as_one_column(self, journal):
        system, collection = journal
        collection.set("buffer", {})
        result = system.explain(self.DOCUMENTS_ABOUT_WWW, {"collPara": collection})
        (span,) = [s for s in result.root.iter_spans() if s.name == "oodb.query.candidates"]
        documents = system.db.extent_size("MMFDOC")
        assert span.attributes["compiled"] == 2
        assert span.attributes["decided"] == 2 * documents  # YEAR all, the IRS those left
        assert span.attributes["undecided"] == 0
        (column,) = [s for s in result.root.iter_spans() if s.name == "coupling.deriveIRSValue"]
        assert column.attributes["mode"] == "column"
        assert column.attributes["scheme"] == "maximum"
        assert column.attributes["objects"] == documents
        assert not [
            s for s in result.root.iter_spans()
            if s.name == "coupling.findIRSValue" and s.attributes.get("source") == "derived"
        ]

    def test_undecided_candidates_show_in_the_candidates_span(self, journal, monkeypatch):
        system, collection = journal
        default = system.db.schema.resolve_method("MMFDOC", "deriveIRSValue")
        # An application's own deriveIRSValue: each document is sent it.
        monkeypatch.setitem(
            system.db.schema.get_class("MMFDOC").methods,
            "deriveIRSValue",
            lambda obj, *args: default(obj, *args),
        )
        collection.set("buffer", {})
        result = system.explain(self.DOCUMENTS_ABOUT_WWW, {"collPara": collection})
        (span,) = [s for s in result.root.iter_spans() if s.name == "oodb.query.candidates"]
        documents = system.db.extent_size("MMFDOC")
        assert span.attributes["compiled"] == 2
        assert span.attributes["decided"] == documents  # YEAR decides all, the IRS none
        assert span.attributes["undecided"] == documents  # ... of those YEAR left
        derived = [
            s for s in result.root.iter_spans()
            if s.name == "coupling.findIRSValue" and s.attributes.get("source") == "derived"
        ]
        assert len(derived) == documents

    def test_projected_items_compiled_or_sent_in_span_and_plan(self, journal):
        system, collection = journal
        bindings = {"collPara": collection}
        result = system.explain(QUERY_ONE, bindings)
        (join,) = [s for s in result.root.iter_spans() if s.name == "oodb.query.join"]
        assert join.attributes["projected"] == "compiled:1 sent:0"
        assert "projected: compiled:1 sent:0 columns=['p -> length(...)']" in result.render()
        # getIRSValue reads an outside source and getTextContent has no
        # compiler: both are sent per row; the ORDER BY key is a column.
        mixed = (
            "ACCESS p -> getIRSValue(collPara, 'WWW'), p -> getTextContent() "
            "FROM p IN PARA ORDER BY p -> length() DESC"
        )
        result = system.explain(mixed, bindings)
        (join,) = [s for s in result.root.iter_spans() if s.name == "oodb.query.join"]
        assert join.attributes["projected"] == "compiled:1 sent:2"
        assert "projected: compiled:1 sent:2 columns=['p -> length(...)']" in result.render()
        # Still one logical method call per row and projected item.
        rows = len(result.rows)
        assert result.stats.method_calls == 3 * rows == 3 * system.db.extent_size("PARA")
        lengths = [len(text) for _value, text in result.rows]
        assert lengths == sorted(lengths, reverse=True)

    def test_render_includes_plan_counters_and_tree(self, journal):
        system, collection = journal
        result = system.explain(QUERY_ONE, {"collPara": collection})
        text = result.render()
        assert "p IN PARA" in text
        assert "tuples_examined=" in text
        assert "oodb.query" in text
        assert "ms" in text

    def test_explain_works_while_instrumentation_disabled(self, journal):
        system, collection = journal
        collection.set("buffer", {})
        obs.disable()
        try:
            result = system.explain(QUERY_ONE, {"collPara": collection})
            assert result.root is not None
            assert "irs.query" in result.stage_names()
        finally:
            obs.enable()

    def test_explain_does_not_pollute_global_tracer(self, journal):
        system, collection = journal
        with obs.instrumentation() as (tracer, _metrics):
            system.explain(QUERY_ONE, {"collPara": collection})
            assert tracer.finished_traces() == []


class TestSlowQueryLog:
    def test_threshold_gates_recording(self):
        log = SlowQueryLog(threshold=0.1, capacity=4)
        assert not log.record("vql", "fast query", 0.05)
        assert log.record("vql", "slow query", 0.2, rows=3)
        assert len(log) == 1
        (entry,) = log.entries()
        assert entry.kind == "vql"
        assert entry.seconds == 0.2
        assert entry.info == {"rows": 3}

    def test_capacity_is_bounded(self):
        log = SlowQueryLog(threshold=0.0, capacity=2)
        for i in range(5):
            log.record("irs", f"q{i}", 1.0)
        assert [e.text for e in log.entries()] == ["q3", "q4"]

    def test_zero_threshold_logs_real_queries(self, journal):
        system, collection = journal
        obs.configure(slow_query_seconds=0.0)
        try:
            obs.slow_log().clear()
            system.query(QUERY_ONE, {"collPara": collection})
            kinds = {e.kind for e in obs.slow_log().entries()}
            assert "vql" in kinds
        finally:
            obs.configure(slow_query_seconds=0.25)
            obs.slow_log().clear()
