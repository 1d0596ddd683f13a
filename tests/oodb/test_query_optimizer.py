"""Optimizer: index selection, join ordering, semantic restrictors."""

import pytest

from repro.oodb import Database
from repro.oodb.oid import OID
from repro.oodb.query.evaluator import QueryEvaluator
from repro.oodb.query.optimizer import (
    register_batch_method,
    register_restrictor,
    restrictor_for,
    unregister_batch_method,
    unregister_restrictor,
)


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

    def test_range_uses_btree(self, db):
        db.create_index("Item", "v")
        plan = db.explain("ACCESS x FROM x IN Item WHERE x.v > 40")
        assert "Item.v > 40" in plan["variables"]["x"]["index_predicates"]

    def test_hash_index_not_used_for_range(self, db):
        db.create_index("Item", "name", kind="hash")
        plan = db.explain("ACCESS x FROM x IN Item WHERE x.name > 'a'")
        assert plan["variables"]["x"]["index_predicates"] == []
        assert plan["variables"]["x"]["residual_filters"] == 1

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
    para.add_method("getNext", lambda o: o.deref("next") if o.get("next") else None)
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
    "WHERE d.year = 1994 AND p1 -> getNext() == p2 AND p1 -> getDoc() == d "
    "AND p1 -> has('{first}') = TRUE AND p2 -> has('{second}') = TRUE"
)


class TestConnectivityAwareJoinOrder:
    def reference_rows(self, db, first, second):
        rows = []
        for p1 in db.instances_of("Para"):
            p2 = p1.send("getNext")
            if (
                p2 is not None
                and p1.deref("doc").get("year") == 1994
                and first in p1.get("words")
                and second in p2.get("words")
            ):
                rows.append((p1, p2))
        return rows

    def test_commoner_term_on_p1_costs_about_the_same_as_the_rarer(self, journal_db):
        """With the commoner term on p1, candidate-set size alone binds d and
        p2 first — no conjunct joins them — and multiplies the tuples."""
        cheap_rows, cheap = QueryEvaluator(journal_db).run_with_stats(
            Q2_SHAPE.format(first="rare", second="common")
        )
        swapped_rows, swapped = QueryEvaluator(journal_db).run_with_stats(
            Q2_SHAPE.format(first="common", second="rare")
        )
        assert swapped.per_variable_candidates == {"d": 2, "p1": 100, "p2": 29}
        assert sorted(swapped_rows, key=repr) == sorted(
            self.reference_rows(journal_db, "common", "rare"), key=repr
        )
        assert sorted(cheap_rows, key=repr) == sorted(
            self.reference_rows(journal_db, "rare", "common"), key=repr
        )
        assert swapped_rows and cheap_rows
        # Size order d, p2, p1 would examine 2 + 2*29 + 2*29*100 = 5860.
        assert swapped.tuples_examined <= 1.5 * cheap.tuples_examined

    def test_first_pick_and_unconnected_variables_fall_back_to_smallest(self, db):
        evaluator = QueryEvaluator(db)
        order = evaluator._join_order(
            {"a": [1, 2, 3], "b": [1], "c": [1, 2]}, []
        )
        assert order == ["b", "c", "a"]


class TestBatchMethods:
    def test_declined_restrictor_predicate_runs_through_the_probe(self, db):
        compiled = []

        def factory(database, class_name, args):
            compiled.append((class_name, args))
            return lambda obj: float(obj.get("v"))

        register_batch_method("score", factory)
        try:
            evaluator = QueryEvaluator(db)
            rows, stats = evaluator.run_with_stats(
                "ACCESS x.v FROM x IN Item WHERE 47 < x -> score('q') AND x.v != 49"
            )
            assert sorted(r[0] for r in rows) == [48]
            assert compiled == [("Item", ("q",))]  # once per statement
            assert stats.probed_predicates == 1
            # One logical call per candidate that reached the conjunct.
            assert stats.method_calls == 49
        finally:
            unregister_batch_method("score")

    def test_restrictor_is_asked_first(self, db):
        register_restrictor("score", lambda database, args, op, c: {OID(10**9)})
        register_batch_method("score", lambda *a: pytest.fail("probe compiled"))
        try:
            assert db.query("ACCESS x FROM x IN Item WHERE x -> score('q') > 1") == []
        finally:
            unregister_restrictor("score")
            unregister_batch_method("score")

    def test_declining_factory_falls_back_to_per_object_dispatch(self, db):
        register_batch_method("score", lambda *a: None)
        try:
            evaluator = QueryEvaluator(db)
            rows, stats = evaluator.run_with_stats(
                "ACCESS x.v FROM x IN Item WHERE x -> score('q') > 47"
            )
            assert sorted(r[0] for r in rows) == [48, 49]
            assert stats.probed_predicates == 0
            assert stats.method_calls == 50
        finally:
            unregister_batch_method("score")

    def test_non_constant_arguments_are_not_probed(self, db):
        register_batch_method("score", lambda *a: pytest.fail("probe compiled"))
        try:
            rows = db.query("ACCESS x.v FROM x IN Item WHERE x -> score(x.name) > 47")
            assert sorted(r[0] for r in rows) == [48, 49]
        finally:
            unregister_batch_method("score")


class TestRestrictors:
    def test_registered_restrictor_is_used(self, db):
        calls = []

        def restrict(database, args, op, constant):
            calls.append((args, op, constant))
            return {
                obj.oid
                for obj in database.instances_of("Item")
                if float(obj.get("v")) > constant
            }

        register_restrictor("score", restrict)
        try:
            evaluator = QueryEvaluator(db)
            rows, stats = evaluator.run_with_stats(
                "ACCESS x.v FROM x IN Item WHERE x -> score('q') > 47"
            )
            assert sorted(r[0] for r in rows) == [48, 49]
            assert stats.restrictor_calls == 1
            assert stats.method_calls == 0  # never evaluated per object
            assert calls == [(("q",), ">", 47)]
        finally:
            unregister_restrictor("score")

    def test_declining_restrictor_falls_back(self, db):
        register_restrictor("score", lambda *a: None)
        try:
            rows = db.query("ACCESS x.v FROM x IN Item WHERE x -> score('q') > 47")
            assert sorted(r[0] for r in rows) == [48, 49]
        finally:
            unregister_restrictor("score")

    def test_unregistered_method_evaluates_per_object(self, db):
        assert restrictor_for("score") is None
        evaluator = QueryEvaluator(db)
        _rows, stats = evaluator.run_with_stats(
            "ACCESS x FROM x IN Item WHERE x -> score('q') > 47"
        )
        assert stats.method_calls == 50
