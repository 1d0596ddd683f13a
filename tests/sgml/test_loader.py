"""SGML loader: fragmentation into database objects (Section 4.1)."""

import pytest

from repro.oodb import Database
from repro.sgml.loader import ELEMENT_CLASS, SGMLLoader
from repro.sgml.mmf import build_document, mmf_dtd


@pytest.fixture
def loaded():
    db = Database()
    loader = SGMLLoader(db)
    loader.register_dtd(mmf_dtd())
    doc = build_document(
        "Loaded",
        ["alpha text", "beta text"],
        year="1994",
        sections=[{"title": "Sec", "paragraphs": ["gamma text"]}],
    )
    root = loader.load_document(doc)
    return db, loader, root


class TestClassGeneration:
    def test_element_type_classes_created(self, loaded):
        db, _loader, _root = loaded
        for tag in ("MMFDOC", "PARA", "SECTION", "SECTITLE"):
            assert db.schema.has_class(tag)
            assert db.schema.is_subclass(tag, ELEMENT_CLASS)

    def test_register_dtd_idempotent(self, loaded):
        db, loader, _root = loaded
        assert loader.register_dtd(mmf_dtd()) == []

    def test_base_class_wiring(self):
        db = Database()
        db.define_class("IRSObject")
        loader = SGMLLoader(db, base_class="IRSObject")
        loader.ensure_element_type("PARA")
        assert db.schema.is_subclass("PARA", "IRSObject")


class TestFragmentation:
    def test_one_object_per_element(self, loaded):
        db, _loader, root = loaded
        # MMFDOC + LOGBOOK + DOCTITLE + 2 PARA + SECTION + SECTITLE + PARA
        assert db.object_count() == 8

    def test_parent_child_wiring(self, loaded):
        _db, _loader, root = loaded
        children = root.send("getChildren")
        assert children[0].send("getParent") == root

    def test_doc_order_assigned(self, loaded):
        db, _loader, root = loaded
        orders = [e.get("doc_order") for e in root.send("getDescendants")]
        assert sorted(orders) == orders == list(range(1, 8))

    def test_content_on_leaves(self, loaded):
        db, _loader, _root = loaded
        paras = db.instances_of("PARA")
        assert {p.get("content") for p in paras} == {"alpha text", "beta text", "gamma text"}

    def test_sgml_attributes_stored(self, loaded):
        _db, _loader, root = loaded
        assert root.send("getAttributeValue", "YEAR") == "1994"
        assert root.send("getAttributeValue", "year") == "1994"  # case-insensitive
        assert root.send("getAttributeValue", "NOPE") is None


class TestNavigationMethods:
    def test_get_next_and_prev(self, loaded):
        db, _loader, _root = loaded
        paras = [p for p in db.instances_of("PARA") if p.get("content").startswith(("alpha", "beta"))]
        first = next(p for p in paras if p.get("content") == "alpha text")
        second = first.send("getNext")
        assert second.get("content") == "beta text"
        assert second.send("getPrev") == first

    def test_child_listed_twice_has_its_first_place(self, loaded):
        db, _loader, root = loaded
        alpha, beta = (
            next(p for p in db.instances_of("PARA") if p.get("content") == text)
            for text in ("alpha text", "beta text")
        )
        root.set("children", root.get("children") + [alpha.oid])
        assert alpha.send("getNext") == beta
        assert alpha.send("getPrev").get("tag") == "DOCTITLE"

    def test_dangling_sibling_is_reported_by_the_join_as_by_the_object(self, loaded):
        """A ``children`` entry without an object: the hash join declines, and
        the nested loop's ``send`` raises what ``beta -> getNext()`` raises."""
        from repro.errors import ObjectNotFoundError
        from repro.oodb.oid import OID

        db, _loader, root = loaded
        beta = next(p for p in db.instances_of("PARA") if p.get("content") == "beta text")
        children = root.get("children")
        children.insert(children.index(beta.oid) + 1, OID(10**6))
        root.set("children", children)
        with pytest.raises(ObjectNotFoundError):
            beta.send("getNext")
        with pytest.raises(ObjectNotFoundError):
            db.query("ACCESS p1, p2 FROM p1 IN PARA, p2 IN PARA WHERE p1 -> getNext() == p2")

    def test_get_containing(self, loaded):
        db, _loader, root = loaded
        gamma = next(p for p in db.instances_of("PARA") if p.get("content") == "gamma text")
        assert gamma.send("getContaining", "SECTION").get("tag") == "SECTION"
        assert gamma.send("getContaining", "MMFDOC") == root
        assert gamma.send("getContaining", "FIGURE") is None

    def test_get_root(self, loaded):
        db, _loader, root = loaded
        for obj in db.instances_of("PARA"):
            assert obj.send("getRoot") == root

    def test_get_text_content_recursive(self, loaded):
        _db, _loader, root = loaded
        text = root.send("getTextContent")
        assert "alpha text" in text and "gamma text" in text

    def test_length(self, loaded):
        db, _loader, _root = loaded
        para = db.instances_of("PARA")[0]
        assert para.send("length") == len(para.get("content"))

    def test_is_leaf(self, loaded):
        db, _loader, root = loaded
        assert db.instances_of("PARA")[0].send("isLeaf")
        assert not root.send("isLeaf")

    def test_get_descendants_filtered(self, loaded):
        _db, _loader, root = loaded
        assert len(root.send("getDescendants", "PARA")) == 3


class TestEditing:
    def test_insert_element(self, loaded):
        db, loader, root = loaded
        new = loader.insert_element(root, "PARA", "inserted text")
        assert new.send("getParent") == root
        assert new.oid in root.get("children")
        assert db.instances_of("PARA")[-1].get("content") == "inserted text"

    def test_insert_at_position(self, loaded):
        _db, loader, root = loaded
        new = loader.insert_element(root, "PARA", "front", position=0)
        assert root.get("children")[0] == new.oid

    def test_update_content(self, loaded):
        db, loader, _root = loaded
        para = db.instances_of("PARA")[0]
        loader.update_content(para, "updated")
        assert para.get("content") == "updated"

    def test_remove_element_subtree(self, loaded):
        db, loader, root = loaded
        section = db.instances_of("SECTION")[0]
        removed = loader.remove_element(section)
        assert removed == 3  # SECTION + SECTITLE + PARA
        assert section.oid not in root.get("children")
        assert db.object_count() == 5

    def test_delete_document(self, loaded):
        db, loader, root = loaded
        assert loader.delete_document(root) == 8
        assert db.object_count() == 0


class TestOneLoggedGroupPerAction:
    """Outside a transaction each loader action is one BEGIN ... COMMIT:
    one fsync on a durable database, not one per attribute written."""

    @pytest.fixture
    def durable(self, tmp_path):
        from repro.core import DocumentSystem

        system = DocumentSystem(directory=str(tmp_path))
        dtd = mmf_dtd()
        system.register_dtd(dtd)
        yield system, dtd
        system.close()

    @staticmethod
    def action(system, run):
        """Run one user action; returns (result, fsyncs, records it logged)."""
        from tests.support import logged_by

        result, counters, records = logged_by(system.db, run)
        return result, counters.get("oodb.wal.fsyncs", 0), records

    def test_each_entry_point_syncs_once(self, durable):
        system, dtd = durable
        document = build_document("Doc", ["alpha text", "beta text"], year="1994")
        loader = system.loader
        root, fsyncs, records = self.action(
            system, lambda: system.add_document(document, dtd=dtd)
        )
        created = sum(1 for r in records if r.kind == "CREATE")
        assert fsyncs == 1 and created == system.db.object_count() > 3
        assert [r.kind for r in records].count("BEGIN") == 1
        assert len({r.txn_id for r in records}) == 1
        actions = {
            "insert_element": lambda: loader.insert_element(root, "PARA", "gamma text"),
            "update_content": lambda: loader.update_content(
                system.db.instances_of("PARA")[0], "rewritten"
            ),
            "set_sgml_attribute": lambda: loader.set_sgml_attribute(root, "year", "1995"),
            "remove_element": lambda: loader.remove_element(
                system.db.instances_of("PARA")[-1]
            ),
            "delete_document": lambda: system.delete_document(root),
        }
        for name, run in actions.items():
            _result, fsyncs, records = self.action(system, run)
            assert fsyncs == 1, name
            assert [records[0].kind, records[-1].kind] == ["BEGIN", "COMMIT"], name
            assert len({r.txn_id for r in records}) == 1, name
        assert system.db.instances_of("MMFDOC") == []

    def test_inside_a_transaction_nothing_changes(self, durable):
        system, dtd = durable
        document = build_document("Doc", ["alpha text"], year="1994")
        txn = system.db.begin()
        root, fsyncs, records = self.action(
            system, lambda: system.add_document(document, dtd=dtd)
        )
        _none, more, edits = self.action(
            system, lambda: system.loader.insert_element(root, "PARA", "beta text")
        )
        assert fsyncs == more == 0  # the commit syncs, once
        assert {r.txn_id for r in records + edits} == {txn.txn_id}
        assert not any(r.kind in ("BEGIN", "COMMIT") for r in records + edits)
        txn.rollback()
        assert system.db.instances_of("MMFDOC") == []

    def test_group_survives_a_crash_whole(self, tmp_path):
        import shutil

        from repro.core import DocumentSystem

        system = DocumentSystem(directory=str(tmp_path / "sys"))
        dtd = mmf_dtd()
        system.register_dtd(dtd)
        system.add_document(build_document("Doc", ["alpha text", "beta text"]), dtd=dtd)
        system.db._wal._file.flush()
        image = str(tmp_path / "image")
        shutil.copytree(str(tmp_path / "sys"), image)  # kill -9: no checkpoint
        expected = sorted(o.get("content") for o in system.db.instances_of("PARA"))
        system.close()
        reopened = DocumentSystem(directory=image)
        assert sorted(o.get("content") for o in reopened.db.instances_of("PARA")) == expected
        reopened.close()


class TestCompiledColumnsOnInconsistentTrees:
    """What the optimizer's method hook maps over a candidate set equals what
    ``send`` returns object by object, on trees no loader would build."""

    @pytest.fixture
    def messy(self):
        from repro.oodb.oid import OID

        db = Database()
        loader = SGMLLoader(db)
        loader.register_dtd(mmf_dtd())
        doc = build_document(
            "Messy",
            ["alpha text", "beta text"],
            year="1994",
            sections=[{"title": "Sec", "paragraphs": ["gamma text", "delta text"]}],
        )
        para = doc.append_element("PARA")  # nested inline elements, one of them empty
        para.append_text("lead")
        emphasis = para.append_element("EM")
        emphasis.append_text("inline")
        emphasis.append_element("EM").append_text("deeper")
        para.append_element("EM")
        root = loader.load_document(doc)
        paras = {p.get("content"): p for p in db.instances_of("PARA")}
        children = root.get("children")
        children.append(OID(10**6))  # dangling
        children.append(paras["alpha text"].oid)  # listed twice
        unwritten = db.create_object("PARA", tag="PARA", parent=root.oid)  # no content
        children.append(unwritten.oid)
        root.set("children", children)
        db.delete_object(paras["beta text"])  # deleted, still listed
        db.delete_object(db.instances_of("SECTION")[0])  # intermediate parent gone
        return db, root

    @staticmethod
    def compiled(db, method, *args):
        from repro.oodb.query.optimizer import compile_method

        oids = db.extent_oids(ELEMENT_CLASS)
        answer = compile_method(db, ELEMENT_CLASS, method, args)(oids, None)
        assert not answer.undecided
        values = {oid: answer.values.get(oid, answer.default) for oid in oids}
        if answer.refs:
            values = {o: None if v is None else db.get_object(v) for o, v in values.items()}
        return values

    @pytest.mark.parametrize(
        "method,args",
        [
            ("length", ()),
            ("getContaining", ("MMFDOC",)),
            ("getContaining", ("SECTION",)),
            ("getContaining", ("NOSUCHCLASS",)),
            ("getAttributeValue", ("YEAR",)),
            ("getAttributeValue", ("TITLE",)),
        ],
    )
    def test_column_equals_send_per_object(self, messy, method, args):
        db, _root = messy
        values = self.compiled(db, method, *args)
        assert values == {
            obj.oid: obj.send(method, *args) for obj in db.instances_of(ELEMENT_CLASS)
        }

    def test_length_is_the_length_of_the_text(self, messy):
        db, root = messy
        lengths = self.compiled(db, "length")
        for obj in db.instances_of(ELEMENT_CLASS):
            assert lengths[obj.oid] == len(obj.send("getTextContent")), obj
        assert root.send("getTextContent").count("alpha text") == 2
        assert lengths[root.oid] == len(root.send("getTextContent"))

    def test_projected_rows_equal_per_row_send(self, messy):
        from repro.oodb.query.evaluator import QueryEvaluator

        db, _root = messy
        evaluator = QueryEvaluator(db)
        rows, stats = evaluator.run_with_stats(
            "ACCESS p, p -> length() FROM p IN Element ORDER BY p -> length() DESC"
        )
        expected = [(obj, obj.send("length")) for obj in db.instances_of(ELEMENT_CLASS)]
        assert rows == sorted(expected, key=lambda row: row[1], reverse=True)
        assert stats.method_calls == 2 * len(rows)  # one per row for each of two items
        rows = db.query("ACCESS p, p -> getContaining('MMFDOC') FROM p IN PARA")
        assert rows == [(p, p.send("getContaining", "MMFDOC")) for p in db.instances_of("PARA")]
        assert any(container is None for _p, container in rows)  # under the deleted SECTION

    def test_a_chain_through_no_object_raises_as_per_row(self, messy):
        from repro.errors import QueryEvaluationError

        db, root = messy
        year = "p -> getContaining('MMFDOC') -> getAttributeValue('YEAR')"
        with pytest.raises(QueryEvaluationError, match="non-object None"):
            db.query(f"ACCESS {year} FROM p IN PARA")
        rows = db.query(
            f"ACCESS p, {year} FROM p IN PARA WHERE p -> getContaining('MMFDOC') != NULL"
        )
        assert rows and all(value == "1994" for _p, value in rows)
        assert {p for p, _v in rows} == {
            p for p in db.instances_of("PARA") if p.send("getContaining", "MMFDOC") == root
        }
