"""Non-members' IRS values derived as one column equal the per-object path.

A compiled ``x -> getIRSValue(c, q)`` derives the candidates the collection
does not represent in one pass over their descendants (Section 4.5.2's
``maximum`` and ``average``), where Figure 3 sends ``deriveIRSValue`` to
each object.  The reference here is that per-object path itself: the same
statement with ``deriveIRSValue`` overridden on the range class by a wrapper
around the default, so the compiler leaves every non-member undecided.
Rows, the stored buffer (item order included), the derivation and amend
counters and the WAL records must not tell the two apart.
"""

import contextlib
import json

import pytest

from repro import obs
from repro.core import DocumentSystem
from repro.core.derivation import component_values, derive_maximum, register_scheme
from repro.oodb.locks import LockMode
from repro.oodb.oid import OID
from repro.sgml.loader import descendants
from repro.workloads.corpus import CorpusGenerator, load_corpus
from repro.workloads.figure4 import load_figure4, rank_documents

SCHEMES = ["maximum", "average"]
QUERIES = ["www", "nii", "#and(www nii)", "zzzunseen"]


@contextlib.contextmanager
def per_object(system, range_class):
    """Override ``deriveIRSValue`` on ``range_class`` with the default itself."""
    methods = system.db.schema.get_class(range_class).methods
    default = system.db.schema.resolve_method(range_class, "deriveIRSValue")
    methods["deriveIRSValue"] = lambda obj, *args: default(obj, *args)
    try:
        yield
    finally:
        del methods["deriveIRSValue"]


def observe(system, collection, statement):
    """Run ``statement`` on a cold buffer; what it returned and left behind."""
    collection.set("buffer", {})
    registry = obs.metrics()
    before = (
        registry.counter("coupling.derivations").value,
        registry.counter("coupling.buffer.amends").value,
        len(system.db._wal),
    )
    rows = [row[0].oid for row in system.session.execute(statement, {"coll": collection})]
    after = (
        registry.counter("coupling.derivations").value,
        registry.counter("coupling.buffer.amends").value,
        len(system.db._wal),
    )
    deltas = tuple(b - a for a, b in zip(before, after))
    return rows, json.dumps(collection.get("buffer")), deltas


def both_ways(system, collection, statement, range_class):
    column = observe(system, collection, statement)
    with per_object(system, range_class):
        reference = observe(system, collection, statement)
    return column, reference


def derived_spans(system, collection, statement):
    collection.set("buffer", {})
    result = system.explain(statement, {"coll": collection})
    return [s for s in result.root.iter_spans() if s.name == "coupling.deriveIRSValue"]


@pytest.fixture(scope="module")
def figure4(tmp_path_factory):
    system = DocumentSystem(directory=str(tmp_path_factory.mktemp("figure4")))
    setup = load_figure4(system)
    yield system, setup["collection"]
    system.close()


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    """Sections too, so a document's components sit at two depths."""
    system = DocumentSystem(directory=str(tmp_path_factory.mktemp("journal")))
    load_corpus(system, CorpusGenerator(seed=31).corpus(documents=9, paragraphs=3, sections=2))
    collection = system.session.create_collection("collPara", "ACCESS p FROM p IN PARA")
    system.session.index(collection)
    yield system, collection
    system.close()


@pytest.fixture
def durable(tmp_path):
    system = DocumentSystem(directory=str(tmp_path / "sys"))
    load_corpus(system, CorpusGenerator(seed=7).corpus(documents=5, paragraphs=3, sections=1))
    collection = system.session.create_collection("collPara", "ACCESS p FROM p IN PARA")
    system.session.index(collection)
    yield system, collection
    system.close()


class TestColumnEqualsPerObject:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("irs_query", QUERIES)
    def test_figure4(self, figure4, scheme, irs_query):
        system, collection = figure4
        collection.set("derivation", scheme)
        statement = f"ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(coll, '{irs_query}') >= 0.0"
        column, reference = both_ways(system, collection, statement, "MMFDOC")
        assert column == reference
        rows, _buffer, (derivations, amends, _wal) = column
        assert len(rows) == 4  # M1..M4
        assert derivations == amends == 4

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("range_class", ["MMFDOC", "SECTION"])
    @pytest.mark.parametrize("irs_query", QUERIES)
    def test_synthetic_corpus(self, journal, scheme, range_class, irs_query):
        system, collection = journal
        collection.set("derivation", scheme)
        statement = (
            f"ACCESS d FROM d IN {range_class} "
            f"WHERE d -> getIRSValue(coll, '{irs_query}') > 0.41"
        )
        column, reference = both_ways(system, collection, statement, range_class)
        assert column == reference
        assert column[2][0] == system.db.extent_size(range_class)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_figure4_values_are_those_sent_per_document(self, figure4, scheme):
        system, collection = figure4
        query = "#and(www nii)"
        roots = {
            root.send("getAttributeValue", "TITLE"): root
            for root in system.db.instances_of("MMFDOC")
        }
        sent = dict(rank_documents(roots, collection, query, scheme))
        _rows, buffer, _deltas = observe(
            system, collection, f"ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(coll, '{query}') > 0.0"
        )
        stored = json.loads(buffer)[f"|{query}"]
        assert {name: stored[str(root.oid)] for name, root in roots.items()} == sent

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_durable_system_logs_the_same_records(self, durable, scheme):
        system, collection = durable
        collection.set("derivation", scheme)
        statement = "ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(coll, 'www') > 0.4"
        column, reference = both_ways(system, collection, statement, "MMFDOC")
        assert column == reference
        assert column[2][2] > 0  # the result stored and one amend per document


class TestWhenTheColumnIsDeclined:
    STATEMENT = "ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(coll, 'www') > 0.4"

    def test_the_default_takes_the_column(self, journal):
        system, collection = journal
        collection.set("derivation", "maximum")
        (span,) = derived_spans(system, collection, self.STATEMENT)
        assert span.attributes["mode"] == "column"
        assert span.attributes["objects"] == system.db.extent_size("MMFDOC")

    @pytest.mark.parametrize("method", ["deriveIRSValue", "getDescendants"])
    def test_a_subclass_overriding_either_method(self, journal, method):
        system, collection = journal
        collection.set("derivation", "maximum")
        db = system.db
        if not db.schema.has_class("OWNDOC"):
            db.define_class("OWNDOC", superclass="MMFDOC")
        methods = db.schema.get_class("OWNDOC").methods
        default = db.schema.resolve_method("MMFDOC", method)
        methods[method] = lambda obj, *args: default(obj, *args)
        try:
            spans = derived_spans(system, collection, self.STATEMENT)
        finally:
            del methods[method]
        assert spans and all("mode" not in s.attributes for s in spans)
        assert len(spans) == db.extent_size("MMFDOC")

    @pytest.mark.parametrize("scheme", ["weighted_type", "length_weighted", "subquery"])
    def test_any_other_scheme(self, journal, scheme):
        system, collection = journal
        collection.set("derivation", scheme)
        spans = derived_spans(system, collection, self.STATEMENT)
        assert len(spans) == system.db.extent_size("MMFDOC")
        assert {s.attributes["scheme"] for s in spans} == {scheme}
        assert all("mode" not in s.attributes for s in spans)

    def test_a_replacement_registered_as_maximum(self, journal):
        system, collection = journal
        collection.set("derivation", "maximum")
        register_scheme("maximum", lambda coll, query, obj: 0.5)
        try:
            spans = derived_spans(system, collection, self.STATEMENT)
            rows = system.session.execute(self.STATEMENT, {"coll": collection})
        finally:
            register_scheme("maximum", derive_maximum)
        assert len(spans) == system.db.extent_size("MMFDOC")
        assert all("mode" not in s.attributes for s in spans)
        assert len(rows) == system.db.extent_size("MMFDOC")  # every value is the 0.5


class TestColumnSemantics:
    def test_a_second_conjunct_derives_only_what_passed_the_first(self, journal):
        system, collection = journal
        collection.set("derivation", "maximum")
        statement = (
            "ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(coll, 'www') > 0.42 "
            "AND d -> getIRSValue(coll, 'nii') > 0.42"
        )
        column, reference = both_ways(system, collection, statement, "MMFDOC")
        assert column == reference
        first = system.session.execute(
            "ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(coll, 'www') > 0.42",
            {"coll": collection},
        )
        documents = system.db.extent_size("MMFDOC")
        assert 0 < len(first) < documents
        _rows, _buffer, (derivations, amends, _wal) = column
        assert derivations == amends == documents + len(first)

    def test_a_dangling_child_is_skipped(self, tmp_path):
        system = DocumentSystem(directory=str(tmp_path))
        load_corpus(system, CorpusGenerator(seed=5).corpus(documents=3, paragraphs=3))
        collection = system.session.create_collection("collPara", "ACCESS p FROM p IN PARA")
        system.session.index(collection)
        root = system.db.instances_of("MMFDOC")[0]
        before = descendants(system.db, [root.oid])[root.oid]
        root.set("children", list(root.get("children")) + [OID(987654)])
        assert descendants(system.db, [root.oid])[root.oid] == before
        assert [d.oid for d in root.send("getDescendants")] == before
        statement = "ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(coll, 'www') >= 0.0"
        column, reference = both_ways(system, collection, statement, "MMFDOC")
        assert column == reference
        system.close()

    def test_a_child_listed_twice_counts_twice(self, journal):
        system, collection = journal
        collection.set("derivation", "average")
        root = system.db.instances_of("MMFDOC")[1]
        children = list(root.get("children"))
        root.set("children", children + children[-1:])
        try:
            below = descendants(system.db, [root.oid])[root.oid]
            assert [d.oid for d in root.send("getDescendants")] == below
            assert len(below) > len(set(below))
            statement = "ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(coll, 'www') >= 0.0"
            column, reference = both_ways(system, collection, statement, "MMFDOC")
            assert column == reference
        finally:
            root.set("children", children)

    def test_average_adds_components_in_document_order(self, tmp_path):
        """Floats in another order can differ in the last bit; the corpus
        has a document where they do, so the order is pinned."""
        system = DocumentSystem(directory=str(tmp_path))
        load_corpus(system, CorpusGenerator(seed=11).corpus(documents=6, paragraphs=12))
        collection = system.session.create_collection(
            "collPara", "ACCESS p FROM p IN PARA", derivation="average"
        )
        system.session.index(collection)
        query = "#sum(www nii telnet)"
        order_matters = [
            values for values in (
                [value for _c, value in component_values(collection, query, d)]
                for d in system.db.instances_of("MMFDOC")
            )
            if sum(values) != sum(reversed(values))
        ]
        assert order_matters
        statement = f"ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(coll, '{query}') >= 0.0"
        column, reference = both_ways(system, collection, statement, "MMFDOC")
        assert column == reference
        system.close()

    def test_inside_a_transaction_same_locks_and_undone_alike(self, journal):
        system, collection = journal
        collection.set("derivation", "maximum")
        db = system.db
        statement = "ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(coll, 'nii') > 0.4"

        def in_transaction():
            collection.set("buffer", {})
            before = json.dumps(collection.get("buffer"))
            txn = db.begin()
            rows = system.session.execute(statement, {"coll": collection})
            held = {
                resource: db._locks.holds(txn.txn_id, resource, LockMode.EXCLUSIVE)
                for resource in db._locks._held_by_txn.get(txn.txn_id, ())
            }
            inside = json.dumps(collection.get("buffer"))
            txn.rollback()
            assert json.dumps(collection.get("buffer")) == before
            return rows, held, inside

        column = in_transaction()
        with per_object(system, "MMFDOC"):
            reference = in_transaction()
        assert column == reference
        _rows, held, _inside = column
        assert held[collection.oid]  # the amends' exclusive lock
        assert all(db.object_exists(oid) for oid in held)
