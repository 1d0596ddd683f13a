"""Attribute indexes: maintenance, probes, catalog, and the oracle that an
index changes the plan, never the result."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryEvaluationError
from repro.oodb import Database
from repro.oodb.indexes import AttributeIndex, IndexCatalog
from repro.oodb.oid import OID
from repro.oodb.query.evaluator import QueryEvaluator, _compare


class TestAttributeIndex:
    def test_lookup(self):
        index = AttributeIndex("X", "v")
        index.insert(5, OID(1))
        index.insert(5, OID(2))
        assert index.lookup(5) == {OID(1), OID(2)}

    def test_lookup_and_remove(self):
        index = AttributeIndex("X", "v")
        index.insert("a", OID(1))
        index.insert("a", OID(2))
        index.remove("a", OID(1))
        assert index.lookup("a") == {OID(2)}
        index.remove("a", OID(2))
        assert index.lookup("a") == set()

    def test_range(self):
        index = AttributeIndex("X", "v")
        for i in range(10):
            index.insert(i, OID(i))
        assert index.range(">=", 7) == {OID(7), OID(8), OID(9)}
        assert index.range(">", 7) == {OID(8), OID(9)}
        assert index.range("<", 2) == {OID(0), OID(1)}
        assert index.range("<=", 2) == {OID(0), OID(1), OID(2)}

    def test_range_sees_keys_added_and_emptied_after_a_probe(self):
        index = AttributeIndex("X", "v")
        index.insert(1, OID(1))
        assert index.range(">", 0) == {OID(1)}
        index.insert(5, OID(5))
        index.remove(1, OID(1))
        assert index.range(">", 0) == {OID(5)}

    def test_none_keys_not_indexed(self):
        index = AttributeIndex("X", "v")
        index.insert(None, OID(1))
        index.remove(None, OID(1))
        assert index.range(">", -math.inf) == set()
        assert index.lookup(None) is None  # `= NULL` is the filter's to answer

    def test_bool_and_int_keys_follow_python_equality(self):
        index = AttributeIndex("X", "v")
        index.insert(True, OID(1))
        index.insert(1, OID(2))
        index.insert(1.0, OID(3))
        assert index.lookup(True) == index.lookup(1) == {OID(1), OID(2), OID(3)}

    def test_incomparable_range_returns_none(self):
        index = AttributeIndex("X", "v")
        index.insert(1, OID(1))
        assert index.range(">", "a") is None
        index.insert("b", OID(2))
        assert index.range(">", 0) is None
        assert index.lookup("b") == {OID(2)}

    def test_values_held_aside_make_every_probe_decline(self):
        index = AttributeIndex("X", "v")
        index.insert(1, OID(1))
        index.insert([1, 2], OID(2))
        assert index.lookup(1) is None and index.range(">", 0) is None
        index.remove([1, 2], OID(2))
        index.insert(math.nan, OID(3))
        assert index.lookup(1) is None
        index.remove(math.nan, OID(3))
        assert index.lookup(1) == {OID(1)}
        assert index.range(">", math.nan) is None


def filled(keys):
    """An index holding ``OID(i)`` under the i-th of ``keys``."""
    index = AttributeIndex("X", "v")
    for number, key in enumerate(keys):
        index.insert(key, OID(number))
    return index


class TestAttributeIndexMaintenance:
    def test_lookup_missing_returns_empty_set(self):
        assert filled([1, 2]).lookup(99) == set()

    def test_duplicate_pair_is_idempotent(self):
        index = AttributeIndex("X", "v")
        index.insert(1, OID(1))
        index.insert(1, OID(1))
        index.remove(1, OID(1))
        assert index.lookup(1) == set()
        assert index.range(">=", 1) == set()

    def test_remove_missing_leaves_the_index_unchanged(self):
        index = filled(["a", "b"])
        index.remove("a", OID(9))
        index.remove("zz", OID(0))
        assert index.lookup("a") == {OID(0)}
        assert index.range(">=", "a") == {OID(0), OID(1)}

    @pytest.mark.parametrize("order", ["insertion", "reverse"])
    def test_remove_everything(self, order):
        keys = list(range(50))
        index = filled(keys)
        live = set(keys)
        for key in keys if order == "insertion" else reversed(keys):
            index.remove(key, OID(key))
            live.discard(key)
            assert index.range(">=", -1) == {OID(k) for k in live}
        assert index.range("<", 100) == set()


class TestAttributeIndexRange:
    @pytest.mark.parametrize(
        "op, constant, expected",
        [
            (">", -1, {0, 1, 2}),  # below every key
            ("<", -1, set()),
            (">", 2, set()),  # at the largest key
            ("<=", 2, {0, 1, 2}),
        ],
    )
    def test_constant_at_or_past_the_ends(self, op, constant, expected):
        assert filled([0, 1, 2]).range(op, constant) == {OID(n) for n in expected}

    def test_strings_follow_lexical_order(self):
        index = filled(["pear", "apple", "fig", "Zebra"])
        assert index.range(">", "fig") == {OID(0)}
        assert index.range("<", "apple") == {OID(3)}  # upper case sorts first

    def test_ints_floats_and_bools_share_one_order(self):
        index = filled([1, 2.5, True, 0, -0.5])
        assert index.range(">=", 1) == {OID(0), OID(1), OID(2)}
        assert index.range("<", 1.0) == {OID(3), OID(4)}


RANGE_OPERATORS = [">", ">=", "<", "<="]


class TestAttributeIndexProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove"]),
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=200,
        )
    )
    def test_matches_reference_dict(self, ops):
        index, reference = AttributeIndex("X", "v"), {}
        for op, key, number in ops:
            if op == "insert":
                index.insert(key, OID(number))
                reference.setdefault(key, set()).add(OID(number))
            else:
                index.remove(key, OID(number))
                reference.get(key, set()).discard(OID(number))
        for key in range(41):
            assert index.lookup(key) == reference.get(key, set())
        assert index.range(">=", 0) == set().union(*reference.values())

    @pytest.mark.parametrize("op", RANGE_OPERATORS)
    @settings(max_examples=40, deadline=None)
    @given(keys=st.lists(st.integers(0, 100), max_size=60), constant=st.integers(0, 100))
    def test_range_matches_filter(self, op, keys, constant):
        expected = {OID(n) for n, key in enumerate(keys) if _compare(op, key, constant)}
        assert filled(keys).range(op, constant) == expected


class TestCatalog:
    def test_all_indexes_lists_every_index(self):
        catalog = IndexCatalog()
        kept = [catalog.create("X", "v"), catalog.create("Y", "v")]
        catalog.create("X", "w")
        catalog.drop("X", "w")
        assert catalog.all_indexes() == kept

    def test_find_is_exact_about_the_class(self):
        catalog = IndexCatalog()
        created = catalog.create("Element", "tag")
        assert catalog.find("Element", "tag") is created
        assert catalog.find("PARA", "tag") is None
        assert catalog.find("Element", "name") is None

    def test_create_is_idempotent(self):
        catalog = IndexCatalog()
        first = catalog.create("X", "v")
        second = catalog.create("X", "v")
        assert first is second

    def test_covering_finds_first_match(self):
        catalog = IndexCatalog()
        created = catalog.create("Element", "tag")
        assert catalog.covering(["PARA", "Element"], "tag") is created
        assert catalog.covering(["PARA"], "tag") is None

    def test_drop(self):
        catalog = IndexCatalog()
        catalog.create("X", "v")
        catalog.drop("X", "v")
        assert catalog.find("X", "v") is None

    def test_covers_attribute_tracks_create_and_drop(self):
        catalog = IndexCatalog()
        assert not catalog.covers_attribute("v")
        catalog.create("X", "v")
        catalog.create("Y", "v")
        assert catalog.covers_attribute("v")
        assert not catalog.covers_attribute("w")
        catalog.drop("X", "v")
        assert catalog.covers_attribute("v")
        catalog.drop("Y", "v")
        assert not catalog.covers_attribute("v")


class TestDatabaseIndexMaintenance:
    @pytest.fixture
    def db(self):
        d = Database()
        d.define_class("Base", attributes={"v": "INT"})
        d.define_class("Sub", superclass="Base")
        return d

    def test_backfill_on_create_index(self, db):
        objs = [db.create_object("Base", v=i) for i in range(5)]
        index = db.create_index("Base", "v")
        assert index.lookup(3) == {objs[3].oid}

    def test_index_covers_subclasses(self, db):
        db.create_index("Base", "v")
        sub = db.create_object("Sub", v=9)
        assert db.indexes.find("Base", "v").lookup(9) == {sub.oid}

    def test_write_updates_index(self, db):
        db.create_index("Base", "v")
        obj = db.create_object("Base", v=1)
        obj.set("v", 2)
        index = db.indexes.find("Base", "v")
        assert index.lookup(1) == set()
        assert index.lookup(2) == {obj.oid}

    def test_subclass_write_maintains_superclass_index(self, db):
        db.define_class("Leaf", superclass="Sub", attributes={"w": "INT"})
        db.create_index("Base", "v")
        leaf = db.create_object("Leaf", v=1, w=5)
        leaf.set("w", 6)
        leaf.set("v", 2)
        index = db.indexes.find("Base", "v")
        assert index.lookup(1) == set()
        assert index.lookup(2) == {leaf.oid}
        db.delete_object(leaf)
        assert index.lookup(2) == set()

    def test_delete_unindexes(self, db):
        db.create_index("Base", "v")
        obj = db.create_object("Base", v=1)
        db.delete_object(obj)
        assert db.indexes.find("Base", "v").lookup(1) == set()

    def test_query_uses_index(self, db):
        db.create_index("Base", "v")
        for i in range(20):
            db.create_object("Base", v=i)
        plan = db.explain("ACCESS x FROM x IN Base WHERE x.v = 5")
        assert plan["variables"]["x"]["index_predicates"] == ["Base.v = 5"]


# -- oracle: the statement with an index returns what it returns without one -----

VALUES = st.one_of(
    st.integers(-3, 50), st.floats(), st.booleans(), st.text("ab", max_size=2), st.none()
)
OPERATORS = st.sampled_from(["=", "==", ">", ">=", "<", "<="])


def run(values, op, constant, indexed):
    """OIDs (in extent order) of ``x.v <op> $c`` over objects holding ``values``,
    or the error it raises."""
    db = Database()
    db.define_class("Item", attributes={"v": "ANY"})
    for value in values:
        db.create_object("Item", v=value)
    if indexed:
        db.create_index("Item", "v")
    try:
        rows = db.query(f"ACCESS x FROM x IN Item WHERE x.v {op} $c", {"c": constant})
    except QueryEvaluationError as exc:
        return ("error", str(exc))
    return [row[0].oid for row in rows]


def assert_index_changes_no_result(values, op, constant):
    assert run(values, op, constant, indexed=True) == run(values, op, constant, indexed=False)


HEAD_VALUES = [1, 2.5, 40, 41, "a", "b", True, False, None, 100]


class TestIndexChangesThePlanNotTheResult:
    def test_range_over_mixed_types_raises_as_the_scan_does(self):
        assert run(HEAD_VALUES, ">", 40, indexed=True) == (
            "error", "cannot compare 'a' > 40"
        )
        assert_index_changes_no_result(HEAD_VALUES, ">", 40)

    def test_equality_matches_bools_as_the_scan_does(self):
        rows = run(HEAD_VALUES, "=", 1, indexed=True)
        assert rows == run(HEAD_VALUES, "=", 1, indexed=False)
        assert len(rows) == 2  # 1 and True

    def test_comparable_range_is_answered_by_the_index(self):
        db = Database()
        db.define_class("Item", attributes={"v": "ANY"})
        for value in [1, 2.5, 40, 41, True, 100]:
            db.create_object("Item", v=value)
        db.create_index("Item", "v")
        rows, stats = QueryEvaluator(db).run_with_stats(
            "ACCESS x.v FROM x IN Item WHERE x.v > 40", {}
        )
        assert stats.index_probes == 1
        assert [row[0] for row in rows] == [41, 100]

    @pytest.mark.parametrize("op", ["=", ">", "<="])
    def test_null_and_nan_constants(self, op):
        for constant in (None, math.nan):
            assert_index_changes_no_result(HEAD_VALUES + [math.nan], op, constant)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(VALUES, max_size=8), OPERATORS, VALUES)
    def test_drawn_statements(self, values, op, constant):
        assert_index_changes_no_result(values, op, constant)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 5), VALUES, st.booleans()), max_size=30),
        OPERATORS,
        VALUES,
    )
    def test_probes_after_writes_and_deletes(self, writes, op, constant):
        """Maintenance keeps every answered probe equal to a scan of the live
        values; range probes between writes exercise the dropped key list."""
        index, live = AttributeIndex("X", "v"), {}
        for number, value, delete in writes:
            oid = OID(number)
            if oid in live:
                index.remove(live.pop(oid), oid)
            if not delete:
                index.insert(value, oid)
                live[oid] = value
            index.range(">", 0)
        answer = index.lookup(constant) if op in ("=", "==") else index.range(op, constant)
        if answer is not None:
            assert answer == {oid for oid, value in live.items() if _compare(op, value, constant)}
