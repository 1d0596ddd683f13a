"""Structural columns and parsed statements kept across statements.

Each invalidation test runs a statement, makes one change, reruns the
statement and compares its rows with a fresh evaluation — the same
statement over empty memos, every column computed anew — and with what
the change must show.
"""

import copy
import threading

import pytest

from repro import obs
from repro.core import DocumentSystem
from repro.errors import QuerySyntaxError
from repro.memo import Memo
from repro.oodb.locks import LockMode
from repro.oodb.query.evaluator import QueryEvaluator
from repro.oodb.query.parser import parse_query
from repro.workloads.corpus import CorpusGenerator, load_corpus
from tests.support import count

LENGTHS = "ACCESS p, p -> length() FROM p IN PARA"
NEXT = "ACCESS p1, p2 FROM p1 IN PARA, p2 IN PARA WHERE p1 -> getNext() == p2"
IN_DOC = "ACCESS p, d FROM p IN PARA, d IN MMFDOC WHERE p -> getContaining('MMFDOC') == d"
Q1_YEAR = (
    "ACCESS p, p -> length() FROM p IN PARA "
    "WHERE p -> getContaining('MMFDOC') -> getAttributeValue('YEAR') = '{year}' "
    "AND p -> getIRSValue(coll, 'www') >= 0.0"
)
Q_DOC = "ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(coll, '{term}') > 0.0"

COLUMN_HITS, COLUMN_MISSES = "oodb.column_cache.hits", "oodb.column_cache.misses"
PARSE_HITS, PARSE_MISSES = "oodb.statement_cache.hits", "oodb.statement_cache.misses"


@pytest.fixture
def journal():
    system = DocumentSystem()
    load_corpus(system, CorpusGenerator(seed=5).corpus(documents=4, paragraphs=3))
    collection = system.session.create_collection("collPara", "ACCESS p FROM p IN PARA")
    system.session.index(collection)
    yield system, {"coll": collection}
    system.close()


def run(db, text, bindings=None):
    return QueryEvaluator(db).run(text, bindings or {})


def fresh(db, text, bindings=None):
    """The statement's rows over empty memos."""
    kept = db.column_memo, db.statement_memo
    db.column_memo = Memo(64, "test.fresh.hits", "test.fresh.misses", "test.fresh.evictions")
    db.statement_memo = Memo(64, "test.fresh.hits", "test.fresh.misses", "test.fresh.evictions")
    try:
        return run(db, text, bindings)
    finally:
        db.column_memo, db.statement_memo = kept


def oids(rows):
    return [tuple(getattr(value, "oid", value) for value in row) for row in rows]


def rerun(db, text, change, bindings=None):
    """(rows before, rows after) ``change``; the latter equal a fresh evaluation."""
    before = run(db, text, bindings)
    assert run(db, text, bindings) == before  # served from the memos
    change()
    after = run(db, text, bindings)
    assert after == fresh(db, text, bindings)
    return oids(before), oids(after)


class TestInvalidation:
    def test_update_content_changes_length(self, journal):
        system, _bindings = journal
        para = system.db.instances_of("PARA")[0]
        before, after = rerun(
            system.db, LENGTHS, lambda: system.loader.update_content(para, "x" * 1234)
        )
        assert (para.oid, 1234) in after and (para.oid, 1234) not in before

    def test_insert_element_changes_get_next(self, journal):
        system, _bindings = journal
        first = system.db.instances_of("PARA")[0]
        parent = first.send("getParent")
        position = parent.get("children").index(first.oid) + 1
        inserted = []

        def insert():
            inserted.append(system.loader.insert_element(parent, "PARA", "new", position))

        before, after = rerun(system.db, NEXT, insert)
        assert (first.oid, inserted[0].oid) in after
        assert (first.oid, inserted[0].oid) not in before
        assert [pair for pair in before if pair[0] == first.oid] != [
            pair for pair in after if pair[0] == first.oid
        ]

    def test_delete_document_drops_its_paragraphs(self, journal):
        system, _bindings = journal
        document = system.db.instances_of("MMFDOC")[0]
        before, after = rerun(system.db, IN_DOC, lambda: system.loader.delete_document(document))
        assert any(d == document.oid for _p, d in before)
        assert after == [(p, d) for p, d in before if d != document.oid]

    def test_deleting_an_ancestor_alone_changes_get_containing(self, journal):
        # No ``parent`` is written: only the set of live objects changes.
        system, _bindings = journal
        db = system.db
        document = db.instances_of("MMFDOC")[0]
        before, after = rerun(db, IN_DOC, lambda: db.delete_object(document.oid))
        assert after == [(p, d) for p, d in before if d != document.oid]

    def test_a_delete_and_a_create_change_length_at_an_equal_object_count(self, journal):
        # The document's ``children`` still lists the deleted paragraph; its
        # length drops because the paragraph no longer exists.
        system, _bindings = journal
        db = system.db
        document = db.instances_of("MMFDOC")[0]
        para = document.send("getDescendants", "PARA")[0]
        content = para.get("content")
        text = "ACCESS d, d -> length() FROM d IN MMFDOC"
        objects = db.object_count()

        def swap():
            db.delete_object(para.oid)
            db.create_object("LOGBOOK", tag="LOGBOOK", children=[])

        before, after = rerun(db, text, swap)
        assert db.object_count() == objects
        shorter = dict(before)[document.oid] - len(content) - 1
        assert dict(after)[document.oid] == shorter

    def test_insert_element_under_an_mmfdoc_changes_its_derived_value(self, journal):
        # A document's value derives from its paragraphs' (Figure 3); the
        # descendants it derives from are a kept column.
        system, bindings = journal
        first = system.db.instances_of("PARA")[0]
        document = first.send("getContaining", "MMFDOC")

        def insert():
            para = system.loader.insert_element(first.send("getParent"), "PARA", "zyxwvut")
            bindings["coll"].send("insertObject", para)

        before, after = rerun(system.db, Q_DOC.format(term="zyxwvut"), insert, bindings)
        assert (before, after) == ([], [(document.oid,)])

    def test_a_year_write_changes_q1_year(self, journal):
        system, bindings = journal
        document = system.db.instances_of("MMFDOC")[0]
        year = document.send("getAttributeValue", "YEAR")
        text = Q1_YEAR.format(year=year)
        paragraphs = {d.oid for d in document.send("getDescendants", "PARA")}
        before, after = rerun(
            system.db, text,
            lambda: system.loader.set_sgml_attribute(document, "YEAR", "1066"), bindings,
        )
        assert paragraphs <= {p for p, _length in before}
        assert after == [(p, n) for p, n in before if p not in paragraphs]

    def test_add_attribute_with_a_default_changes_a_column(self, journal):
        system, _bindings = journal
        db = system.db
        db.define_class("NOTE", superclass="PARA")
        note = db.create_object("NOTE", tag="NOTE", children=[])
        text = "ACCESS n, n -> length() FROM n IN NOTE"
        before, after = rerun(
            db, text, lambda: db.add_class_attribute("NOTE", "content", "STRING", "abcd")
        )
        assert (before, after) == ([(note.oid, 0)], [(note.oid, 4)])

    def test_a_rolled_back_children_write_leaves_the_rows(self, journal):
        system, _bindings = journal
        db = system.db
        parent = db.instances_of("PARA")[0].send("getParent")
        original = run(db, NEXT)
        txn = db.begin()
        parent.set("children", list(reversed(parent.get("children"))))
        # An autocommit reader on another thread sees the uncommitted list
        # and keeps columns at the version it read.
        dirty = []
        reader = threading.Thread(target=lambda: dirty.append(run(db, NEXT)))
        reader.start()
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert dirty[0] != original
        txn.rollback()
        assert run(db, NEXT) == original == fresh(db, NEXT)

    def test_explicit_transactions_bypass_the_memo_and_take_shared_locks(self, journal):
        system, _bindings = journal
        db = system.db
        rows = run(db, LENGTHS)
        hits, misses = count(COLUMN_HITS), count(COLUMN_MISSES)
        txn = db.begin()
        try:
            assert run(db, LENGTHS) == rows
            assert (count(COLUMN_HITS), count(COLUMN_MISSES)) == (hits, misses)
            assert all(db._locks.holds(txn.txn_id, p.oid, LockMode.SHARED) for p, _n in rows)
        finally:
            txn.rollback()
        assert db._locks._entries == {}

    def test_buffer_item_writes_keep_the_columns(self, journal):
        system, bindings = journal
        collection = bindings["coll"]
        text = "ACCESS p, p -> length() FROM p IN PARA WHERE p -> getIRSValue(coll, $q) >= 0.0"
        run(system.db, text, {**bindings, "q": "www"})
        buffered = collection.get("buffer")
        assert "|www" in buffered
        hits, misses = count(COLUMN_HITS), count(COLUMN_MISSES)
        rows = run(system.db, text, {**bindings, "q": "telnet"})  # buffers a new result
        assert "|telnet" in collection.get("buffer")
        assert count(COLUMN_HITS) == hits + 1 and count(COLUMN_MISSES) == misses
        assert rows == fresh(system.db, text, {**bindings, "q": "telnet"})


class TestCounters:
    def test_first_statement_misses_and_its_rerun_hits(self, journal):
        system, _bindings = journal
        with obs.instrumentation() as (_tracer, metrics):
            run(system.db, LENGTHS)
            counters = metrics.snapshot()["counters"]
            assert (counters[PARSE_HITS], counters[PARSE_MISSES]) == (0, 1)
            assert (counters[COLUMN_HITS], counters[COLUMN_MISSES]) == (0, 1)
            run(system.db, LENGTHS)
            counters = metrics.snapshot()["counters"]
            assert (counters[PARSE_HITS], counters[PARSE_MISSES]) == (1, 1)
            assert (counters[COLUMN_HITS], counters[COLUMN_MISSES]) == (1, 1)

    def test_a_path_counts_one_per_column_call_not_per_object(self, journal):
        system, bindings = journal
        text = Q1_YEAR.format(year="1994")
        with obs.instrumentation() as (_tracer, metrics):
            run(system.db, text, bindings)
            counters = metrics.snapshot()["counters"]
            # getContaining, getAttributeValue, length: one call each.
            assert (counters[COLUMN_HITS], counters[COLUMN_MISSES]) == (0, 3)
            run(system.db, text, bindings)
            counters = metrics.snapshot()["counters"]
            assert (counters[COLUMN_HITS], counters[COLUMN_MISSES]) == (3, 3)

    def test_derived_values_keep_the_descendants_column(self, journal):
        system, bindings = journal
        with obs.instrumentation() as (_tracer, metrics):
            for term in ("www", "telnet"):  # the second misses the buffer, not the column
                run(system.db, Q_DOC.format(term=term), bindings)
            counters = metrics.snapshot()["counters"]
            assert (counters[COLUMN_HITS], counters[COLUMN_MISSES]) == (1, 1)


class TestStatements:
    def test_a_kept_query_is_never_mutated(self, journal):
        system, bindings = journal
        db = system.db
        texts = [
            LENGTHS, NEXT, IN_DOC, Q1_YEAR.format(year="1994"),
            "ACCESS d -> getAttributeValue('YEAR'), COUNT(*) FROM d IN MMFDOC "
            "GROUP BY d -> getAttributeValue('YEAR')",
            "ACCESS p FROM p IN PARA WHERE NOT p -> length() < 10 "
            "ORDER BY p -> length() DESC LIMIT 3",
        ]
        for text in texts:
            run(db, text, bindings)
            kept = db.statement_memo.get(text, None)
            pristine = copy.deepcopy(kept)
            QueryEvaluator(db).explain(text, bindings)
            run(db, text, bindings)
            assert db.statement_memo.get(text, None) is kept
            assert kept == pristine == parse_query(text)

    def test_a_syntax_error_is_not_kept(self, journal):
        system, _bindings = journal
        with pytest.raises(QuerySyntaxError):
            run(system.db, "ACCESS p FROM")
        assert system.db.statement_memo.get("ACCESS p FROM", None) is None


class TestMemo:
    def test_a_value_serves_only_its_token(self):
        memo = Memo(4, "test.hits", "test.misses", "test.evictions")
        memo.put("k", (1, 2), "value")
        assert memo.get("k", (1, 2)) == "value"
        assert memo.get("k", (1, 3)) is None
        assert memo.get("other", (1, 2)) is None

    def test_the_oldest_key_goes_when_full(self):
        memo = Memo(2, "test.hits", "test.misses", "test.evictions")
        for key in "abc":
            memo.put(key, 0, key.upper())
        assert [memo.get(key, 0) for key in "abc"] == [None, "B", "C"]
        memo.put("b", 1, "B1")  # a refreshed key is the newest
        memo.put("d", 0, "D")
        assert [memo.get(key, token) for key, token in (("b", 1), ("c", 0), ("d", 0))] == [
            "B1", None, "D"
        ]

    def test_count_moves_each_counter_once(self):
        with obs.instrumentation() as (_tracer, metrics):
            Memo(2, "test.hits", "test.misses", "test.evictions").count(3, 2)
            counters = metrics.snapshot()["counters"]
            assert (counters["test.hits"], counters["test.misses"]) == (3, 2)
