"""Set-at-a-time evaluation of mixed statements equals per-object evaluation.

The evaluator compiles ``x -> getIRSValue(<coll>, <query>) OP <const>`` into
a map over the candidate set (one IRS result per statement, members decided
from it, Figure 3's derive-and-amend path for the undecided rest), the
structural methods into maps read from the store, path conjuncts into two
maps and equi-joins into hash lookups.  The reference is what strategy (1)
of Section 4.5.3 means: ``send`` every method to every object — per variable
for its own conjuncts, then brute-force nested loops for the joins — and
compare in Python.  Rows must agree as ordered lists, and so must what the
statement left in the persistent result buffer.

Profiles: the default ``mixed-fixed`` profile is derandomized (reproducible
CI gate); set ``HYPOTHESIS_PROFILE=mixed-random`` for a randomized pass (CI
runs both).
"""

import copy
import operator
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import DocumentSystem
from repro.core.derivation import _SCHEMES
from repro.oodb.query.evaluator import QueryEvaluator
from repro.workloads.corpus import CorpusGenerator, load_corpus
from tests.support import count

settings.register_profile(
    "mixed-fixed",
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "mixed-random",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
_SETTINGS = settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "mixed-fixed"))

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
    @_SETTINGS
    @given(
        range_class=st.sampled_from(RANGES),
        irs_query=st.sampled_from(QUERIES),
        op=st.sampled_from(sorted(OPERATORS)),
        scheme=st.sampled_from(sorted(_SCHEMES)),
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
        queries, misses = count("irs.query.executed"), count("coupling.buffer.misses")
        run(system, collection, "PARA", "www", ">", 0.42)
        assert count("irs.query.executed") == queries + 1
        assert count("coupling.buffer.misses") == misses + 1
        hits, calls = count("coupling.buffer.hits"), count("coupling.getIRSValue.calls")
        run(system, collection, "PARA", "www", ">", 0.42)
        assert count("irs.query.executed") == queries + 1
        # One hit and one getIRSValue evaluation for the statement, where
        # per-object evaluation counted one per PARA.
        assert count("coupling.buffer.hits") == hits + 1
        assert count("coupling.getIRSValue.calls") == calls + 1

    def test_derived_values_are_amended_once_and_hit_afterwards(self, journal):
        system, collection = journal
        collection.set("derivation", "maximum")
        collection.set("buffer", {})
        documents = system.db.extent_size("MMFDOC")
        before = count("coupling.derivations")
        run(system, collection, "MMFDOC", "www", ">", 0.42)
        assert count("coupling.derivations") == before + documents
        stored = collection.get("buffer")["|www"]
        assert all(str(d.oid) in stored for d in system.db.instances_of("MMFDOC"))
        run(system, collection, "MMFDOC", "www", ">", 0.42)
        assert count("coupling.derivations") == before + documents  # buffered now

    def test_no_candidate_reaching_the_conjunct_means_no_irs_query(self, journal):
        system, collection = journal
        collection.set("buffer", {})
        queries = count("irs.query.executed")
        rows = system.session.execute(
            "ACCESS p FROM p IN PARA WHERE p -> length() < 0 "
            "AND p -> getIRSValue(coll, 'www') > 0.1",
            {"coll": collection},
        )
        assert rows == []
        assert count("irs.query.executed") == queries


# --------------------------------------------------------------------------
# Multi-variable and path statements against brute-force nested loops
# --------------------------------------------------------------------------

@dataclass
class Statement:
    """A statement twice: as VQL text and as Python predicates over ``send``."""

    ranges: List[Tuple[str, str]]
    #: variable -> [(VQL conjunct, predicate of the object)], in source order
    single: Dict[str, List[Tuple[str, Callable]]] = field(default_factory=dict)
    #: [(VQL conjunct, predicate of the environment)]
    joins: List[Tuple[str, Callable]] = field(default_factory=list)
    select: Tuple[str, Callable] = ("", None)

    @property
    def text(self) -> str:
        conjuncts = [t for var, _cls in self.ranges for t, _p in self.single.get(var, ())]
        conjuncts += [t for t, _p in self.joins]
        return (
            f"ACCESS {self.select[0]} "
            f"FROM {', '.join(f'{var} IN {cls}' for var, cls in self.ranges)} "
            f"WHERE {' AND '.join(conjuncts)}"
        )

    def brute_force(self, db, order: List[str]) -> List[tuple]:
        """Per-variable filters over ``send``, then nested loops in ``order``."""
        candidates = {
            var: [
                obj for obj in db.instances_of(cls)
                if all(predicate(obj) for _t, predicate in self.single.get(var, ()))
            ]
            for var, cls in self.ranges
        }
        rows: List[tuple] = []

        def loop(env: dict, remaining: List[str]) -> None:
            if not remaining:
                if all(predicate(env) for _t, predicate in self.joins):
                    rows.append(self.select[1](env))
                return
            for obj in candidates[remaining[0]]:
                loop({**env, remaining[0]: obj}, remaining[1:])

        loop({}, order)
        return rows


def content(var, collection, irs_query, op, constant, binding="coll"):
    compare = OPERATORS[op]
    return (
        f"{var} -> getIRSValue({binding}, '{irs_query}') {op} {constant!r}",
        lambda obj: compare(obj.send("getIRSValue", collection, irs_query), constant),
    )


def year_is(var, year):
    return (
        f"{var} -> getAttributeValue('YEAR') = '{year}'",
        lambda obj: obj.send("getAttributeValue", "YEAR") == year,
    )


def year_of_document_is(var, year):
    return (
        f"{var} -> getContaining('MMFDOC') -> getAttributeValue('YEAR') = '{year}'",
        lambda obj: obj.send("getContaining", "MMFDOC").send("getAttributeValue", "YEAR") == year,
    )


NEXT = ("p1 -> getNext() == p2", lambda env: env["p1"].send("getNext") == env["p2"])
IN_DOC = (
    "p1 -> getContaining('MMFDOC') == d",
    lambda env: env["p1"].send("getContaining", "MMFDOC") == env["d"],
)


def build(shape, collection, year, first, second):
    """The benchmark's four statement shapes plus a two-variable join."""
    range_class, first = first[3], first[:3]
    one, two = content("p1", collection, *first), content("p2", collection, *second)
    if shape == "q1_year":
        return Statement(
            [("p1", "PARA")], {"p1": [year_of_document_is("p1", year), one]},
            select=("p1, p1 -> length()", lambda env: (env["p1"], env["p1"].send("length"))),
        )
    if shape == "q_doc":
        return Statement(
            [("d", range_class)], {"d": [year_is("d", year), content("d", collection, *first)]},
            select=("d", lambda env: (env["d"],)),
        )
    title = ("d -> getAttributeValue('TITLE')", lambda env: (env["d"].send("getAttributeValue", "TITLE"),))
    if shape == "doc_join":
        return Statement(
            [("p1", "PARA"), ("d", "MMFDOC")], {"d": [year_is("d", year)], "p1": [one]},
            [IN_DOC], select=("p1, d", lambda env: (env["p1"], env["d"])),
        )
    ranges = [("d", "MMFDOC"), ("p1", "PARA"), ("p2", "PARA")]
    if shape == "q2_flipped":  # the join written the other way round, ranges reordered
        ranges.reverse()
        joins = [
            ("p2 == p1 -> getNext()", NEXT[1]),
            ("d == p1 -> getContaining('MMFDOC')", IN_DOC[1]),
        ]
    else:
        joins = [NEXT, IN_DOC]
    return Statement(ranges, {"d": [year_is("d", year)], "p1": [one], "p2": [two]}, joins, title)


def run_both_ways(system, collection, statement):
    """(rows, stats, buffer) set-at-a-time; (rows, buffer) by brute force."""
    bindings = {"coll": collection}
    collection.set("buffer", {})
    result = system.explain(statement.text, bindings)
    buffer = copy.deepcopy(collection.get("buffer"))
    (join,) = [s for s in result.root.iter_spans() if s.name == "oodb.query.join"]
    order = [level.split(":")[0] for level in join.attributes["strategy"].split()]
    assert sorted(order) == sorted(var for var, _cls in statement.ranges)
    collection.set("buffer", {})
    expected = statement.brute_force(system.db, order)
    return (result.rows, result.stats, buffer), (expected, collection.get("buffer"))


content_conjunct = st.tuples(
    st.sampled_from(QUERIES),
    st.sampled_from(sorted(OPERATORS)),
    st.sampled_from([0.0, 0.4, 0.42, 0.5]),
)


class TestStatementsEqualBruteForceNestedLoops:
    @_SETTINGS
    @given(
        shape=st.sampled_from(["q1_year", "q_doc", "doc_join", "q2", "q2_flipped"]),
        year=st.sampled_from(["1993", "1994", "1995", "1066"]),
        first=content_conjunct,
        second=content_conjunct,
        range_class=st.sampled_from(RANGES),
        scheme=st.sampled_from(sorted(_SCHEMES)),
    )
    # A year no document has: the other conjuncts leave no candidate, so the
    # content conjunct must fetch (and buffer) nothing, as per object.
    @example("q1_year", "1066", ("www", ">", 0.4), ("nii", ">", 0.4), "PARA", "maximum")
    @example("q_doc", "1066", ("www", ">", 0.4), ("nii", ">", 0.4), "MMFDOC", "maximum")
    @example("q2", "1066", ("www", ">", 0.4), ("nii", ">", 0.4), "PARA", "maximum")
    def test_rows_and_buffer_equal(
        self, journal, shape, year, first, second, range_class, scheme
    ):
        system, collection = journal
        collection.set("derivation", scheme)
        statement = build(shape, collection, year, (*first, range_class), second)
        (rows, stats, buffer), (expected, expected_buffer) = run_both_ways(
            system, collection, statement
        )
        assert rows == expected
        assert buffer == expected_buffer  # results fetched and values amended, no more
        # Every conjunct compiles — but getAttributeValue over IRSObject, a
        # class that does not answer it itself: the compiler declines.  Once
        # a variable has no candidate left its other conjuncts are not asked.
        declined = shape == "q_doc" and range_class == "IRSObject"
        conjuncts = len(statement.joins) - declined + sum(
            len(conjuncts) for conjuncts in statement.single.values()
        )
        if all(stats.per_variable_candidates.values()):
            assert stats.probed_predicates == conjuncts
        else:
            assert stats.probed_predicates <= conjuncts
        # Warm buffer (the derived values amended above): same rows.
        assert system.session.execute(statement.text, {"coll": collection}) == expected

    def test_hash_joins_enumerate_matches_not_the_cross_product(self, journal):
        system, collection = journal
        statement = build("q2", collection, "1994", ("www", ">", 0.0, "PARA"), ("nii", ">=", 0.0))
        (rows, stats, _b), (expected, _eb) = run_both_ways(system, collection, statement)
        assert rows == expected
        paragraphs = system.db.extent_size("PARA")
        assert stats.per_variable_candidates["p2"] == paragraphs
        # d, then p1 through getContaining, then at most one p2 through getNext.
        assert stats.tuples_examined <= stats.per_variable_candidates["d"] + 2 * paragraphs


@pytest.fixture
def small_journal():
    """A private journal: classes may be added and members edited."""
    system = DocumentSystem()
    load_corpus(system, CorpusGenerator(seed=5).corpus(documents=4, paragraphs=3))
    collection = system.session.create_collection(
        "collPara", "ACCESS p FROM p IN PARA", update_policy="deferred"
    )
    system.session.index(collection)
    yield system, collection
    system.close()


class TestStatementsWithPendingUpdatesAndOverrides:
    @pytest.mark.parametrize("shape", ["q1_year", "doc_join", "q2"])
    def test_pending_propagation_is_forced_exactly_once(self, small_journal, shape):
        system, collection = small_journal
        statement = build(shape, collection, "1994", ("www", ">", 0.0, "PARA"), ("www", "<", 0.9))
        paragraph = system.db.instances_of("PARA")[0]
        paragraph.set("content", "now about www and nothing else www www")
        collection.send("modifyObject", paragraph)
        forced = count("coupling.updates.forced_propagations")
        rows = system.session.execute(statement.text, {"coll": collection})
        assert count("coupling.updates.forced_propagations") == forced + 1
        (again, _s, _b), (expected, _eb) = run_both_ways(system, collection, statement)
        assert rows == again == expected
        assert count("coupling.updates.forced_propagations") == forced + 1

    def test_subclass_overriding_get_next_declines_the_join_only(self, small_journal):
        system, collection = small_journal
        db = system.db
        db.define_class("LASTPARA", superclass="PARA")
        db.schema.get_class("LASTPARA").add_method("getNext", lambda obj: None)
        statement = build("q2", collection, "1994", ("www", ">=", 0.0, "PARA"), ("nii", ">=", 0.0))
        (rows, stats, _b), (expected, _eb) = run_both_ways(system, collection, statement)
        assert rows == expected and rows
        # getContaining and the three comparisons compile, getNext is sent.
        assert stats.probed_predicates == 4
        # A range whose class does not answer the structural methods itself:
        # both joins are nested loops over send, the comparisons still compile.
        statement.ranges[1] = ("p1", "IRSObject")
        (rows, stats, _b), (expected, _eb) = run_both_ways(system, collection, statement)
        assert rows == expected and rows
        assert stats.probed_predicates == 3

    def test_subclass_overriding_get_irs_value_declines_the_comparison(self, small_journal):
        system, collection = small_journal
        db = system.db
        db.define_class("LOUDPARA", superclass="PARA")
        db.schema.get_class("LOUDPARA").add_method(
            "getIRSValue", lambda obj, coll=None, q=None: 0.99
        )
        sibling = db.instances_of("PARA")[0]
        parent = sibling.send("getParent")
        loud = db.create_object("LOUDPARA", tag="PARA", parent=parent.oid, children=[])
        parent.set("children", parent.get("children") + [loud.oid])
        year = sibling.send("getContaining", "MMFDOC").send("getAttributeValue", "YEAR")
        statement = build(
            "q1_year", collection, year, ("zzzunseen", ">", 0.5, "PARA"), ("www", ">", 0.5)
        )
        (rows, stats, _b), (expected, _eb) = run_both_ways(system, collection, statement)
        assert rows == expected == [(loud, 0)]
        assert stats.probed_predicates == 1  # the path; getIRSValue is sent per object


class TestIrsFirstIsIndependentMinusTheNotRepresented:
    @_SETTINGS
    @given(
        range_class=st.sampled_from(RANGES),
        irs_query=st.sampled_from(QUERIES),
        op=st.sampled_from([">", ">="]),
        threshold=st.sampled_from([0.1, 0.4, 0.42, 0.5]),
    )
    def test_strategies_differ_by_non_members_only(
        self, journal, range_class, irs_query, op, threshold
    ):
        from repro.core.mixed import evaluate_independent, evaluate_irs_first

        system, collection = journal
        query = f"ACCESS x FROM x IN {range_class} WHERE x -> getIRSValue(coll, $q) {op} $t"
        bindings = {"coll": collection, "q": irs_query, "t": threshold}
        # Cold both times: a warm buffer holds the values the independent run
        # derived and amended (Figure 3), and IRS-first would see those too.
        collection.set("buffer", {})
        irs_first = evaluate_irs_first(system.db, query, bindings)
        collection.set("buffer", {})
        independent = evaluate_independent(system.db, query, bindings)
        members = collection.get("doc_map")
        assert irs_first.rows == [
            row for row in independent.rows if str(row[0].oid) in members
        ]
        assert (irs_first.method_calls, irs_first.restrictor_calls) == (0, 1)
