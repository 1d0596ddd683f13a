"""Optimizer: index selection, join ordering, the compiled-method hook."""

import contextlib

import pytest

from repro.errors import QueryEvaluationError
from repro.oodb import Database
from repro.oodb.query.evaluator import QueryEvaluator
from repro.oodb.query.optimizer import (
    MethodMap,
    compile_method,
    register_method_compiler,
    unregister_method_compiler,
)


@contextlib.contextmanager
def compilers(**by_method):
    """Register ``method=compiler`` pairs for the duration of a test.

    One compiler per name: the methods here have names of their own
    (``getFollowing``, not the SGML layer's ``getNext``).
    """
    for method, compiler in by_method.items():
        register_method_compiler(method, compiler)
    try:
        yield
    finally:
        for method in by_method:
            unregister_method_compiler(method)


def attribute_compiler(attr, refs=False, transform=lambda value: value):
    """A compiler answering a method from one stored attribute."""

    def compiler(db, class_name, args):
        def compiled(oids, bound=None):
            values = {oid: transform(db.read_attribute(oid, attr)) for oid in oids}
            return MethodMap(values, refs=refs)

        return compiled

    return compiler


@pytest.fixture
def db():
    d = Database()
    d.define_class("Item", attributes={"v": "INT", "name": "STRING"})
    d.schema.get_class("Item").add_method(
        "getAttributeValue", lambda o, a: o.get(a)
    )
    d.schema.get_class("Item").add_method("score", lambda o, q: float(o.get("v")))
    for i in range(50):
        d.create_object("Item", v=i, name=f"item{i}")
    return d


class TestIndexSelection:
    def test_equality_uses_index(self, db):
        db.create_index("Item", "v")
        plan = db.explain("ACCESS x FROM x IN Item WHERE x.v = 7")
        assert plan["variables"]["x"]["index_predicates"] == ["Item.v = 7"]

    def test_range_uses_index(self, db):
        db.create_index("Item", "v")
        plan = db.explain("ACCESS x FROM x IN Item WHERE x.v > 40")
        assert "Item.v > 40" in plan["variables"]["x"]["index_predicates"]

    def test_flipped_comparison_normalized(self, db):
        db.create_index("Item", "v")
        plan = db.explain("ACCESS x FROM x IN Item WHERE 7 = x.v")
        assert plan["variables"]["x"]["index_predicates"] == ["Item.v = 7"]

    def test_get_attribute_value_recognized(self, db):
        db.create_index("Item", "v")
        plan = db.explain(
            "ACCESS x FROM x IN Item WHERE x -> getAttributeValue('v') = 7"
        )
        assert plan["variables"]["x"]["index_predicates"] == ["Item.v = 7"]

    def test_no_index_means_filter(self, db):
        plan = db.explain("ACCESS x FROM x IN Item WHERE x.v = 7")
        assert plan["variables"]["x"]["index_predicates"] == []
        assert plan["variables"]["x"]["residual_filters"] == 1

    def test_indexed_result_correct(self, db):
        db.create_index("Item", "v")
        rows = db.query("ACCESS x.v FROM x IN Item WHERE x.v >= 47")
        assert sorted(r[0] for r in rows) == [47, 48, 49]

    def test_parameter_constant_usable(self, db):
        db.create_index("Item", "v")
        evaluator = QueryEvaluator(db)
        rows, stats = evaluator.run_with_stats(
            "ACCESS x.v FROM x IN Item WHERE x.v = $k", {"k": 5}
        )
        assert rows == [(5,)]
        assert stats.index_probes == 1


class TestJoinBehaviour:
    def test_multi_variable_conjunct_becomes_join_predicate(self, db):
        plan = db.explain(
            "ACCESS a, b FROM a IN Item, b IN Item WHERE a.v = b.v"
        )
        assert plan["join_conjuncts"] == 1

    def test_selective_variable_drives_join(self, db):
        db.create_index("Item", "v")
        evaluator = QueryEvaluator(db)
        _rows, stats = evaluator.run_with_stats(
            "ACCESS a, b FROM a IN Item, b IN Item WHERE a.v = 1 AND a.v = b.v"
        )
        # a is restricted to 1 candidate by the index; tuples examined should
        # be far below the 50*50 cross product.
        assert stats.tuples_examined <= 51 + 1


@pytest.fixture
def journal_db():
    """Q2's shape: documents, their paragraphs in reading order, two terms."""
    d = Database()
    d.define_class("Doc", attributes={"year": "INT"})
    d.define_class("Para", attributes={"doc": "OID", "next": "OID", "words": "LIST"})
    para = d.schema.get_class("Para")
    para.add_method("getFollowing", lambda o: o.deref("next") if o.get("next") else None)
    para.add_method("getDoc", lambda o: o.deref("doc"))
    para.add_method("has", lambda o, word: word in o.get("words"))
    for j in range(20):
        doc = d.create_object("Doc", year=1990 + j % 10)
        previous = None
        for i in range(10):
            n = j * 10 + i
            words = (["common"] if n % 2 == 0 else []) + (["rare"] if n % 7 == 0 else [])
            obj = d.create_object("Para", doc=doc.oid, words=words)
            if previous is not None:
                previous.set("next", obj.oid)
            previous = obj
    return d


Q2_SHAPE = (
    "ACCESS p1, p2 FROM d IN Doc, p1 IN Para, p2 IN Para "
    "WHERE d.year = 1994 AND p1 -> getFollowing() == p2 AND p1 -> getDoc() == d "
    "AND p1 -> has('{first}') = TRUE AND p2 -> has('{second}') = TRUE"
)


def has_compiler(db, class_name, args):
    (word,) = args
    return lambda oids, bound=None: MethodMap(
        {oid: word in db.read_attribute(oid, "words") for oid in oids}
    )


class TestConnectivityAwareJoinOrder:
    def reference_rows(self, db, first, second):
        rows = []
        for p1 in db.instances_of("Para"):
            p2 = p1.send("getFollowing")
            if (
                p2 is not None
                and p1.deref("doc").get("year") == 1994
                and first in p1.get("words")
                and second in p2.get("words")
            ):
                rows.append((p1, p2))
        return rows

    def run_both_orders(self, db):
        cheap_rows, cheap = QueryEvaluator(db).run_with_stats(
            Q2_SHAPE.format(first="rare", second="common")
        )
        swapped_rows, swapped = QueryEvaluator(db).run_with_stats(
            Q2_SHAPE.format(first="common", second="rare")
        )
        assert swapped.per_variable_candidates == {"d": 2, "p1": 100, "p2": 29}
        assert cheap.per_variable_candidates == {"d": 2, "p1": 29, "p2": 100}
        assert sorted(swapped_rows, key=repr) == sorted(
            self.reference_rows(db, "common", "rare"), key=repr
        )
        assert sorted(cheap_rows, key=repr) == sorted(
            self.reference_rows(db, "rare", "common"), key=repr
        )
        assert swapped_rows and cheap_rows
        return (cheap_rows, cheap), (swapped_rows, swapped)

    def test_commoner_term_on_p1_costs_about_the_same_as_the_rarer(self, journal_db):
        """Nested loops (nothing compiles here): with the commoner term on p1,
        candidate-set size alone would bind d and p2 first — no conjunct joins
        them — and multiply the tuples."""
        (_rows, cheap), (_swapped_rows, swapped) = self.run_both_orders(journal_db)
        assert cheap.probed_predicates == swapped.probed_predicates == 0
        # Size order d, p2, p1 would examine 2 + 2*29 + 2*29*100 = 5860.
        assert swapped.tuples_examined <= 1.5 * cheap.tuples_examined

    def test_hash_joins_make_both_term_orders_cost_the_matches(self, journal_db):
        """With ``getFollowing`` / ``getDoc`` compiled, each level is a lookup: the
        tuples are the smaller content candidate set at most, plus matches."""
        with compilers(
            getFollowing=attribute_compiler("next", refs=True),
            getDoc=attribute_compiler("doc", refs=True),
            has=has_compiler,
        ):
            (cheap_rows, cheap), (swapped_rows, swapped) = self.run_both_orders(journal_db)
        for rows, stats in ((cheap_rows, cheap), (swapped_rows, swapped)):
            assert stats.probed_predicates == 4  # two joins, two content conjuncts
            assert stats.tuples_examined <= 29 + len(rows)
        # One logical call per candidate of each compiled conjunct.
        assert swapped.method_calls == 200 + 200 + 100 + 100

    def test_first_pick_and_unconnected_variables_fall_back_to_smallest(self, db):
        evaluator = QueryEvaluator(db)
        order = evaluator._join_order(
            {"a": [1, 2, 3], "b": [1], "c": [1, 2]}, []
        )
        assert order == ["b", "c", "a"]


SCORE = "ACCESS x.v FROM x IN Item WHERE x -> score('q') > 47"


class TestMethodCompilerHook:
    def test_compiled_comparison_filters_the_map(self, db):
        compiled = []

        def compiler(database, class_name, args):
            compiled.append((class_name, args))
            return attribute_compiler("v", transform=float)(database, class_name, args)

        with compilers(score=compiler):
            rows, stats = QueryEvaluator(db).run_with_stats(
                "ACCESS x.v FROM x IN Item WHERE 47 < x -> score('q') AND x.v != 49"
            )
        assert sorted(r[0] for r in rows) == [48]
        assert compiled == [("Item", ("q",))]  # once per statement
        assert stats.probed_predicates == 1
        # One logical call per candidate, added wholesale; x.v is an attribute.
        assert stats.method_calls == 50

    def test_sparse_map_touches_only_listed_values(self, db):
        listed = {obj.oid: float(obj.get("v")) for obj in db.instances_of("Item")[45:]}
        touched = []

        class Listed(dict):
            def get(self, key, default=None):
                touched.append(key)
                return dict.get(self, key, default)

        def compiler(database, class_name, args):
            return lambda oids, bound=None: MethodMap(Listed(listed), default=0.0)

        with compilers(score=compiler):
            rows, stats = QueryEvaluator(db).run_with_stats(SCORE)
            assert sorted(r[0] for r in rows) == [48, 49]
            assert stats.method_calls == 50
            assert sorted(touched) == sorted(listed)  # the default cannot pass
            # ... but 0.0 passes "< 47": every candidate is compared
            rows = db.query(SCORE.replace("> 47", "< 47"))
            assert sorted(r[0] for r in rows) == list(range(47))
            assert len(touched) == 5 + 50

    def test_undecided_candidates_are_sent_the_method_last(self, db):
        """What the map cannot answer goes to the object — after the residual
        filter rejected most of them."""
        odd = [obj.oid for obj in db.instances_of("Item") if obj.get("v") % 2]

        def compiler(database, class_name, args):
            def compiled(oids, bound=None):
                values = {
                    oid: float(database.read_attribute(oid, "v"))
                    for oid in oids if oid not in odd
                }
                return MethodMap(values, odd)

            return compiled

        sent = []
        db.schema.get_class("Item").add_method(
            "score", lambda o, q: sent.append(o.get("v")) or float(o.get("v"))
        )
        with compilers(score=compiler):
            rows, stats = QueryEvaluator(db).run_with_stats(
                "ACCESS x.v FROM x IN Item WHERE x -> score('q') > 40 AND x.v + 0 < 45"
            )
        assert sorted(r[0] for r in rows) == [41, 42, 43, 44]
        # Only the odd ones the residual filter left: 45, 47, 49 are never asked.
        assert sent == list(range(1, 45, 2))
        assert stats.method_calls == 25 + 22

    def test_restricting_map_counts_as_a_restrictor_call(self, db):
        hits = {obj.oid: float(obj.get("v")) for obj in db.instances_of("Item")[40:]}

        def compiler(database, class_name, args):
            return lambda oids, bound=None: MethodMap(hits, restricts=bound[0] == ">")

        with compilers(score=compiler):
            rows, stats = QueryEvaluator(db).run_with_stats(SCORE)
        assert sorted(r[0] for r in rows) == [48, 49]
        assert (stats.restrictor_calls, stats.method_calls) == (1, 0)

    def test_declining_compiler_falls_back_to_per_object_dispatch(self, db):
        with compilers(score=lambda *a: None):
            rows, stats = QueryEvaluator(db).run_with_stats(SCORE)
        assert sorted(r[0] for r in rows) == [48, 49]
        assert stats.probed_predicates == 0
        assert stats.method_calls == 50

    def test_register_replaces_and_unregister_withdraws(self, db):
        register_method_compiler("score", lambda *a: None)
        assert compile_method(db, "Item", "score", ("q",)) is None  # declines
        register_method_compiler("score", attribute_compiler("v", transform=float))
        assert compile_method(db, "Item", "score", ("q",)) is not None  # one per name
        unregister_method_compiler("score")
        assert compile_method(db, "Item", "score", ("q",)) is None
        unregister_method_compiler("score")  # gone already: no error

    def test_outside_map_is_asked_for_after_the_object_filters(self, db):
        """A map from an outside source waits for the per-object filters; a
        store-reading one runs before them."""
        asked = []

        def compiler(database, class_name, args):
            def compiled(oids, bound=None):
                asked.append(len(oids))
                return MethodMap({oid: float(database.read_attribute(oid, "v")) for oid in oids})

            return compiled

        query = "ACCESS x.v FROM x IN Item WHERE x -> score('q') > 40 AND x.v + 0 < {}"
        for outside, expected in ((False, [50, 50]), (True, [45])):
            register_method_compiler("score", compiler, outside=outside)
            try:
                assert sorted(db.query(query.format(45))) == [(41,), (42,), (43,), (44,)]
                assert db.query(query.format(0)) == []  # no survivor: an outside map is not asked
            finally:
                unregister_method_compiler("score")
            assert asked == expected
            del asked[:]

    def test_non_constant_arguments_are_not_compiled(self, db):
        with compilers(score=lambda *a: pytest.fail("compiled")):
            rows = db.query("ACCESS x.v FROM x IN Item WHERE x -> score(x.name) > 47")
        assert sorted(r[0] for r in rows) == [48, 49]

    def test_unknown_method_evaluates_per_object(self, db):
        assert compile_method(db, "Item", "score", ("q",)) is None
        _rows, stats = QueryEvaluator(db).run_with_stats(SCORE)
        assert stats.method_calls == 50
        with pytest.raises(Exception, match="nosuch"):
            db.query("ACCESS x FROM x IN Item WHERE x -> nosuch() > 1")

    def test_path_maps_the_second_step_once_per_distinct_target(self, journal_db):
        asked = []

        def year_compiler(db, class_name, args):
            def compiled(oids, bound=None):
                asked.append(sorted(oids))
                return MethodMap({oid: db.read_attribute(oid, "year") for oid in oids})

            return compiled

        journal_db.schema.get_class("Doc").add_method("getYear", lambda o: o.get("year"))
        query = "ACCESS p FROM p IN Para WHERE p -> getDoc() -> getYear() = 1994"
        expected = journal_db.query(query)
        with compilers(getDoc=attribute_compiler("doc", refs=True), getYear=year_compiler):
            rows, stats = QueryEvaluator(journal_db).run_with_stats(query)
        assert rows == expected and len(rows) == 20
        assert [len(oids) for oids in asked] == [20]  # 20 documents, not 200 paragraphs
        assert stats.probed_predicates == 1
        assert stats.method_calls == 400  # two logical calls per paragraph

    def test_path_through_a_missing_object_is_reported_per_object(self, journal_db):
        query = "ACCESS p FROM p IN Para WHERE p -> getFollowing() -> has('rare') = TRUE"
        with compilers(getFollowing=attribute_compiler("next", refs=True), has=has_compiler):
            with pytest.raises(QueryEvaluationError, match="non-object"):
                journal_db.query(query)


class TestPlanIsNotMutated:
    def test_index_dropped_between_planning_and_execution(self, db):
        db.create_index("Item", "v")
        evaluator = QueryEvaluator(db)
        from repro.oodb.query.parser import parse_query

        plan = evaluator._optimizer.plan(
            parse_query("ACCESS x.v FROM x IN Item WHERE x.v >= 47"), {}
        )
        description = repr(plan.description)
        assert evaluator._execute(plan, {}) == [(47,), (48,), (49,)]
        db.indexes.drop("Item", "v")
        for _ in range(2):
            assert evaluator._execute(plan, {}) == [(47,), (48,), (49,)]
        assert repr(plan.description) == description
        assert plan.variable_plans["x"].filters == []


class TestOneTupleGenerator:
    JOIN = (
        "ACCESS a.v, b.v FROM a IN Item, b IN Item "
        "WHERE a.v < 5 AND a -> score('q') = b -> score('q')"
    )

    def test_order_by_and_aggregates_count_the_tuples_they_enumerate(self, db):
        rows, plain = QueryEvaluator(db).run_with_stats(self.JOIN)
        ordered_rows, ordered = QueryEvaluator(db).run_with_stats(self.JOIN + " ORDER BY a.v DESC")
        counted, grouped = QueryEvaluator(db).run_with_stats(
            self.JOIN.replace("ACCESS a.v, b.v", "ACCESS COUNT(*)")
        )
        assert ordered_rows == sorted(rows, reverse=True) and counted == [(len(rows),)]
        assert plain.tuples_examined == 5 + 5 * 50
        for stats in (ordered, grouped):
            assert stats.tuples_examined == plain.tuples_examined
            assert stats.method_calls == plain.method_calls == 2 * 5 * 50
