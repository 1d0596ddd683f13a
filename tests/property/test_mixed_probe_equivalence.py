"""Probe-evaluated ``getIRSValue`` conjuncts equal per-object evaluation.

The evaluator compiles ``x -> getIRSValue(<coll>, <query>) OP <const>`` into
a set-at-a-time probe (one IRS result per statement, a dictionary lookup per
member, Figure 3's derive-and-amend path for the rest).  The reference is
what strategy (1) of Section 4.5.3 means: ask every candidate object through
``Session.find_value`` and compare in Python.
"""

import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DocumentSystem
from repro.core.derivation import known_schemes
from repro.oodb.query.evaluator import QueryEvaluator
from repro.workloads.corpus import CorpusGenerator, load_corpus

OPERATORS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
}
QUERIES = ["www", "nii", "telnet", "#and(www nii)", "#or(telnet database)", "zzzunseen"]
#: Member range, non-member range (every value derived), mixed-class range.
RANGES = ["PARA", "MMFDOC", "IRSObject"]


@pytest.fixture(scope="module")
def journal():
    system = DocumentSystem()
    load_corpus(system, CorpusGenerator(seed=23).corpus(documents=8, paragraphs=3))
    collection = system.session.create_collection("collPara", "ACCESS p FROM p IN PARA")
    system.session.index(collection)
    yield system, collection
    system.close()


def run(system, collection, range_class, irs_query, op, constant):
    evaluator = QueryEvaluator(system.db)
    rows, stats = evaluator.run_with_stats(
        f"ACCESS x FROM x IN {range_class} "
        f"WHERE x -> getIRSValue(coll, $q) {op} $t",
        {"coll": collection, "q": irs_query, "t": constant},
    )
    return {row[0].oid for row in rows}, stats


def brute_force(system, collection, range_class, irs_query, op, constant):
    compare = OPERATORS[op]
    return {
        obj.oid
        for obj in system.db.instances_of(range_class)
        if compare(system.session.find_value(collection, irs_query, obj), constant)
    }


class TestProbeEqualsPerObjectEvaluation:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        range_class=st.sampled_from(RANGES),
        irs_query=st.sampled_from(QUERIES),
        op=st.sampled_from(sorted(OPERATORS)),
        scheme=st.sampled_from(known_schemes()),
        threshold=st.one_of(
            st.sampled_from([0.0, 0.4, 0.42, 0.5]), st.integers(0, 200)
        ),
    )
    def test_rows_equal_brute_force(
        self, journal, range_class, irs_query, op, scheme, threshold
    ):
        system, collection = journal
        collection.set("derivation", scheme)
        collection.set("buffer", {})
        if isinstance(threshold, int):
            # An exact value some candidate has, so = / <= / >= sit on the edge.
            candidates = system.db.instances_of(range_class)
            threshold = system.session.find_value(
                collection, irs_query, candidates[threshold % len(candidates)]
            )
        expected = brute_force(system, collection, range_class, irs_query, op, threshold)
        # Cold buffer: the probe itself derives for the non-members.
        collection.set("buffer", {})
        rows, stats = run(system, collection, range_class, irs_query, op, threshold)
        assert rows == expected
        assert stats.probed_predicates == 1
        # Every candidate is still examined, one logical call each.
        assert stats.method_calls == system.db.extent_size(range_class)
        # Warm buffer (derived values amended by the run above): same rows.
        again, _stats = run(system, collection, range_class, irs_query, op, threshold)
        assert again == expected

    def test_one_irs_query_and_one_buffer_hit_per_statement(self, journal):
        system, collection = journal
        collection.set("derivation", "maximum")
        collection.set("buffer", {})
        counters = system.context.counters
        engine = system.engine.counters
        queries, misses = engine.queries_executed, counters.buffer_misses
        run(system, collection, "PARA", "www", ">", 0.42)
        assert engine.queries_executed == queries + 1
        assert counters.buffer_misses == misses + 1
        hits, calls = counters.buffer_hits, counters.get_irs_value_calls
        run(system, collection, "PARA", "www", ">", 0.42)
        assert engine.queries_executed == queries + 1
        # One hit and one getIRSValue evaluation for the statement, where
        # per-object evaluation counted one per PARA.
        assert counters.buffer_hits == hits + 1
        assert counters.get_irs_value_calls == calls + 1

    def test_derived_values_are_amended_once_and_hit_afterwards(self, journal):
        system, collection = journal
        collection.set("derivation", "maximum")
        collection.set("buffer", {})
        counters = system.context.counters
        documents = system.db.extent_size("MMFDOC")
        before = counters.derivations
        run(system, collection, "MMFDOC", "www", ">", 0.42)
        assert counters.derivations == before + documents
        stored = collection.get("buffer")["|www"]
        assert all(str(d.oid) in stored for d in system.db.instances_of("MMFDOC"))
        run(system, collection, "MMFDOC", "www", ">", 0.42)
        assert counters.derivations == before + documents  # buffered now

    def test_no_candidate_reaching_the_conjunct_means_no_irs_query(self, journal):
        system, collection = journal
        collection.set("buffer", {})
        queries = system.engine.counters.queries_executed
        rows = system.session.execute(
            "ACCESS p FROM p IN PARA WHERE p -> length() < 0 "
            "AND p -> getIRSValue(coll, 'www') > 0.1",
            {"coll": collection},
        )
        assert rows == []
        assert system.engine.counters.queries_executed == queries


@pytest.fixture
def nodes():
    """Plain IRSObject subclasses: members, a non-member, room for overrides."""
    system = DocumentSystem()
    db = system.db
    db.define_class("Node", superclass="IRSObject", attributes={"content": "STRING"})
    db.schema.get_class("Node").add_method(
        "getText", lambda obj, mode=0: obj.get("content") or ""
    )
    members = [
        db.create_object("Node", content=text)
        for text in ("www pages", "nii policy", "www and nii", "telnet host")
    ]
    collection = system.session.create_collection(
        "c", "ACCESS n FROM n IN Node", update_policy="deferred"
    )
    system.session.index(collection)
    yield system, collection, members
    system.close()


QUERY = "ACCESS n FROM n IN Node WHERE n -> getIRSValue(c, 'www') > 0.42"


class TestFallBackToSend:
    def test_overridden_get_irs_value_is_dispatched_per_object(self, nodes):
        system, collection, members = nodes
        db = system.db
        db.define_class("LoudNode", superclass="Node")
        db.schema.get_class("LoudNode").add_method(
            "getIRSValue", lambda obj, coll=None, q=None: 0.99
        )
        loud = db.create_object("LoudNode", content="nothing relevant")
        rows, stats = QueryEvaluator(db).run_with_stats(QUERY, {"c": collection})
        assert stats.probed_predicates == 0
        assert stats.method_calls == len(members) + 1
        expected = {
            n.oid for n in db.instances_of("Node")
            if n.send("getIRSValue", collection, "www") > 0.42
        }
        assert {row[0].oid for row in rows} == expected
        assert loud.oid in expected
        # A range the override is not part of is still probed.
        db.define_class("QuietNode", superclass="Node")
        _rows, stats = QueryEvaluator(db).run_with_stats(
            QUERY.replace("IN Node", "IN QuietNode"), {"c": collection}
        )
        assert stats.probed_predicates == 1

    def test_overridden_derive_irs_value_is_reached_through_the_probe(self, nodes):
        system, collection, members = nodes
        db = system.db
        db.define_class("Summary", superclass="Node")
        db.schema.get_class("Summary").add_method(
            "deriveIRSValue", lambda obj, coll, q: 0.77
        )
        summary = db.create_object("Summary", content="not indexed")  # non-member
        rows, stats = QueryEvaluator(db).run_with_stats(QUERY, {"c": collection})
        assert stats.probed_predicates == 1
        assert summary.oid in {row[0].oid for row in rows}
        assert collection.get("buffer")["|www"][str(summary.oid)] == 0.77

    def test_overridden_find_irs_value_declines_the_probe(self, nodes):
        system, collection, members = nodes
        db = system.db
        db.define_class("FlatCollection", superclass="COLLECTION")
        db.schema.get_class("FlatCollection").add_method(
            "findIRSValue", lambda coll, q, obj: 0.5
        )
        flat = db.create_object("FlatCollection", irs_name="flat", doc_map={}, buffer={})
        rows, stats = QueryEvaluator(db).run_with_stats(QUERY, {"c": flat})
        assert stats.probed_predicates == 0
        assert len(rows) == len(members)

    def test_collection_left_to_the_object_is_not_probed(self, nodes):
        system, collection, members = nodes
        for node in members:
            node.send("setDefaultCollection", collection)
        rows, stats = QueryEvaluator(system.db).run_with_stats(
            "ACCESS n FROM n IN Node WHERE n -> getIRSValue('www') > 0.42"
        )
        assert stats.probed_predicates == 0
        probed, _stats = QueryEvaluator(system.db).run_with_stats(QUERY, {"c": collection})
        assert sorted(map(repr, rows)) == sorted(map(repr, probed))


class TestPendingUpdates:
    def test_statement_forces_exactly_one_propagation(self, nodes):
        system, collection, members = nodes
        counters = system.context.counters
        assert system.session.execute(QUERY, {"c": collection})  # buffer warm
        members[3].set("content", "telnet host now about www")
        collection.send("modifyObject", members[3])
        members[0].set("content", "pages only")
        collection.send("modifyObject", members[0])
        forced, derivations = counters.forced_propagations, counters.derivations
        rows = system.session.execute(QUERY, {"c": collection})
        assert counters.forced_propagations == forced + 1
        assert counters.derivations == derivations
        oids = {row[0].oid for row in rows}
        assert members[3].oid in oids and members[0].oid not in oids
        assert oids == brute_force(system, collection, "Node", "www", ">", 0.42)
        system.session.execute(QUERY, {"c": collection})
        assert counters.forced_propagations == forced + 1

    def test_new_member_and_deleted_member_are_seen(self, nodes):
        system, collection, members = nodes
        assert system.session.execute(QUERY, {"c": collection})
        fresh = system.db.create_object("Node", content="fresh www node")
        collection.send("insertObject", fresh)
        system.session.remove(collection, members[2])
        system.db.delete_object(members[2])
        oids = {row[0].oid for row in system.session.execute(QUERY, {"c": collection})}
        assert fresh.oid in oids and members[2].oid not in oids
        assert oids == brute_force(system, collection, "Node", "www", ">", 0.42)
