"""Query evaluation: scans, joins, methods, ordering, errors."""

import pytest

from repro.errors import QueryEvaluationError
from repro.oodb import Database
from repro.oodb.query.evaluator import QueryEvaluator


@pytest.fixture
def db():
    d = Database()
    d.define_class("Doc", attributes={"year": "STRING", "title": "STRING"})
    d.define_class("Para", attributes={"text": "STRING", "doc": "OID", "n": "INT"})
    d.schema.get_class("Para").add_method("length", lambda o: len(o.get("text") or ""))
    d.schema.get_class("Para").add_method(
        "getDoc", lambda o: o.database.get_object(o.get("doc"))
    )
    docs = [
        d.create_object("Doc", year="1993", title="Telnet"),
        d.create_object("Doc", year="1994", title="Web"),
    ]
    for i in range(6):
        d.create_object(
            "Para", text=f"text {i}", doc=docs[i % 2].oid, n=i
        )
    d.docs = docs
    return d


class TestSelection:
    def test_full_scan(self, db):
        rows = db.query("ACCESS p FROM p IN Para")
        assert len(rows) == 6

    def test_equality_filter(self, db):
        rows = db.query("ACCESS p.n FROM p IN Para WHERE p.n = 3")
        assert rows == [(3,)]

    def test_range_filter(self, db):
        rows = db.query("ACCESS p.n FROM p IN Para WHERE p.n >= 4")
        assert sorted(rows) == [(4,), (5,)]

    def test_not_equal(self, db):
        rows = db.query("ACCESS p.n FROM p IN Para WHERE p.n != 0 AND p.n <> 1")
        assert sorted(r[0] for r in rows) == [2, 3, 4, 5]

    def test_method_call_in_where(self, db):
        rows = db.query("ACCESS p FROM p IN Para WHERE p -> length() = 6")
        assert len(rows) == 6  # "text N" is six characters

    def test_projection_of_multiple_columns(self, db):
        rows = db.query("ACCESS p.n, p -> length() FROM p IN Para WHERE p.n = 1")
        assert rows == [(1, 6)]

    def test_or_condition(self, db):
        rows = db.query("ACCESS p.n FROM p IN Para WHERE p.n = 0 OR p.n = 5")
        assert sorted(rows) == [(0,), (5,)]

    def test_not_condition(self, db):
        rows = db.query("ACCESS p.n FROM p IN Para WHERE NOT (p.n < 4)")
        assert sorted(rows) == [(4,), (5,)]

    def test_arithmetic_projection(self, db):
        rows = db.query("ACCESS p.n * 2 + 1 FROM p IN Para WHERE p.n = 3")
        assert rows == [(7,)]


class TestJoins:
    def test_join_on_method_result(self, db):
        rows = db.query(
            "ACCESS d.title, p.n FROM d IN Doc, p IN Para "
            "WHERE p -> getDoc() == d AND d.year = '1994'"
        )
        assert sorted(rows) == [("Web", 1), ("Web", 3), ("Web", 5)]

    def test_cross_product_without_predicate(self, db):
        rows = db.query("ACCESS d, p FROM d IN Doc, p IN Para")
        assert len(rows) == 12

    def test_self_join(self, db):
        rows = db.query(
            "ACCESS p1.n, p2.n FROM p1 IN Para, p2 IN Para "
            "WHERE p1.n + 1 = p2.n AND p1.n >= 4"
        )
        assert rows == [(4, 5)]


class TestOrderingAndLimit:
    def test_order_by_desc(self, db):
        rows = db.query("ACCESS p.n FROM p IN Para ORDER BY p.n DESC")
        assert [r[0] for r in rows] == [5, 4, 3, 2, 1, 0]

    def test_order_by_method(self, db):
        rows = db.query("ACCESS p.n FROM p IN Para ORDER BY p.n ASC LIMIT 2")
        assert rows == [(0,), (1,)]

    def test_limit_without_order(self, db):
        rows = db.query("ACCESS p FROM p IN Para LIMIT 4")
        assert len(rows) == 4


class TestBindings:
    def test_parameter_binding(self, db):
        rows = db.query("ACCESS p.n FROM p IN Para WHERE p.n = $k", {"k": 2})
        assert rows == [(2,)]

    def test_free_identifier_binding(self, db):
        rows = db.query("ACCESS p.n FROM p IN Para WHERE p.n = threshold", {"threshold": 2})
        assert rows == [(2,)]

    def test_unbound_parameter_raises(self, db):
        with pytest.raises(QueryEvaluationError):
            db.query("ACCESS p FROM p IN Para WHERE p.n = $missing")

    def test_unbound_names_raise_only_when_a_tuple_reaches_them(self, db):
        """Lowering happens once per statement; the error waits for a tuple."""
        assert db.query("ACCESS $missing, mystery FROM p IN Para WHERE p.n > 100") == []
        assert db.query("ACCESS p FROM p IN Para WHERE p.n > 100 AND p.n = $missing") == []
        with pytest.raises(QueryEvaluationError, match=r"\$missing"):
            db.query("ACCESS p, $missing FROM p IN Para WHERE p.n = 1")
        with pytest.raises(QueryEvaluationError, match="mystery"):
            db.query("ACCESS p FROM p IN Para ORDER BY mystery")

    def test_unknown_identifier_raises(self, db):
        with pytest.raises(QueryEvaluationError):
            db.query("ACCESS p FROM p IN Para WHERE p.n = mystery")


class TestErrors:
    def test_attribute_on_non_object(self, db):
        with pytest.raises(QueryEvaluationError):
            db.query("ACCESS p.n.m FROM p IN Para")

    def test_method_on_non_object(self, db):
        with pytest.raises(QueryEvaluationError):
            db.query("ACCESS p FROM p IN Para WHERE p.n -> f() = 1")

    def test_incomparable_types(self, db):
        with pytest.raises(QueryEvaluationError):
            db.query("ACCESS p FROM p IN Para WHERE p.text > 5")

    def test_null_ordering_comparison_is_false(self, db):
        db.create_object("Para", text=None, n=None)
        rows = db.query("ACCESS p FROM p IN Para WHERE p.n < 100")
        assert len(rows) == 6  # the NULL row never satisfies <

    def test_division_by_zero(self, db):
        with pytest.raises(QueryEvaluationError):
            db.query("ACCESS p.n / 0 FROM p IN Para")


class TestStats:
    def test_stats_counts_candidates_and_methods(self, db):
        evaluator = QueryEvaluator(db)
        _rows, stats = evaluator.run_with_stats(
            "ACCESS p FROM p IN Para WHERE p -> length() = 6"
        )
        assert stats.per_variable_candidates["p"] == 6
        assert stats.method_calls == 6
        assert stats.rows_produced == 6

    def test_subclass_extents_included(self, db):
        db.define_class("SubPara", superclass="Para")
        db.create_object("SubPara", text="sub", n=77)
        rows = db.query("ACCESS p.n FROM p IN Para WHERE p.n = 77")
        assert rows == [(77,)]
