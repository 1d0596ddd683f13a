"""A document loads as one batch and deletes in one pass.

``SGMLLoader.load_document`` allocates a tree's OIDs up front and creates
each element with its ``parent``, ``children`` and promoted attributes in
one ``CREATE`` record.  The reference here is the per-object sequence the
loader used before: ``create_object`` per element in preorder, then
``set("parent")``, ``set("children")`` and the promotions as writes.  Both
must leave the same objects under the same OIDs, the same extents, index
entries and answers; the batch must log one ``CREATE`` per element and
nothing else, roll back whole and survive a crash at any byte whole.
"""

import json
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.oodb import Database
from repro.sgml.document import Element
from repro.sgml.loader import ELEMENT_CLASS, SGMLLoader
from repro.sgml.mmf import build_document, mmf_dtd
from repro.store import SingleFileStore

TAGS = ["MMFDOC", "SECTION", "PARA", "EM"]
TEXTS = ["", "   ", "alpha", "beta gamma", "www nii telnet"]


def reference_load(loader, root):
    """The per-object load: one create, then writes, per element."""
    db = loader._db
    counter = [0]

    def load(node, parent):
        loader.ensure_element_type(node.tag)
        obj = db.create_object(
            node.tag,
            tag=node.tag,
            content=node.own_text(),
            sgml_attributes=dict(node.attributes),
            doc_order=counter[0],
        )
        counter[0] += 1
        if parent is not None:
            obj.set("parent", parent.oid)
        obj.set("children", [load(child, obj).oid for child in node.child_elements()])
        attributes = obj.get("sgml_attributes") or {}
        for class_name, promoted in loader._promotions.items():
            if obj.isa(class_name):
                for attribute in promoted:
                    if attributes.get(attribute) is not None:
                        obj.set(attribute, attributes[attribute])
        return obj

    with db.autocommit_group():
        return load(root, None)


def build(spec):
    tag, attributes, children = spec
    element = Element(tag, attributes)
    for child in children:
        if isinstance(child, str):
            element.append_text(child)
        else:
            element.append(build(child))
    return element


attribute_dicts = st.dictionaries(
    st.sampled_from(["YEAR", "ID", "LANG"]), st.sampled_from(["1994", "1995", "x"]), max_size=2
)
trees = st.recursive(
    st.tuples(st.sampled_from(TAGS), attribute_dicts, st.lists(st.sampled_from(TEXTS), max_size=2)),
    lambda inner: st.tuples(
        st.sampled_from(TAGS),
        attribute_dicts,
        st.lists(st.one_of(st.sampled_from(TEXTS), inner), max_size=4),
    ),
    max_leaves=10,
)


def state(db):
    """Everything a load leaves behind, attribute order included."""
    oids = sorted(db._store.all_oids())
    return {
        "schema": db.schema.class_names(),
        "objects": {
            oid: (db.class_of(oid), list(db._store.read_all(oid).items()))
            for oid in oids
        },
        "extents": {name: sorted(db._store.extent(name)) for name in db.schema.class_names()},
        "indexes": {
            (index.class_name, index.attribute): (
                {key: sorted(oids) for key, oids in index._table.items()},
                sorted(index._aside),
            )
            for index in db.indexes.all_indexes()
        },
        "text": {
            oid: db.get_object(oid).send("getTextContent")
            for oid in oids
            if db.schema.is_subclass(db.class_of(oid), ELEMENT_CLASS)
        },
    }


def fresh(promoted):
    db = Database()
    loader = SGMLLoader(db)
    if promoted is not None:
        loader.promote_attribute(promoted, "YEAR")
    return db, loader


class TestSameAsPerObjectLoad:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        specs=st.lists(trees, min_size=1, max_size=3),
        promoted=st.one_of(st.none(), st.sampled_from(TAGS), st.just(ELEMENT_CLASS)),
    )
    def test_same_oids_objects_extents_indexes_and_answers(self, specs, promoted):
        batch_db, batch = fresh(promoted)
        reference_db, reference = fresh(promoted)
        for spec in specs:
            root = batch.load_document(build(spec))
            expected = reference_load(reference, build(spec))
            assert (root.oid, root.class_name) == (expected.oid, expected.class_name)
        assert state(batch_db) == state(reference_db)

    def test_promoted_values_land_in_the_create(self, tmp_path):
        db = Database(directory=str(tmp_path))
        loader = SGMLLoader(db)
        loader.register_dtd(mmf_dtd())
        loader.promote_attribute("MMFDOC", "YEAR")
        mark = db._wal.next_lsn
        root = loader.load_document(build_document("Doc", ["alpha", "beta"], year="1994"))
        records = [r for r in db._wal.records() if r.lsn >= mark]
        kinds = [r.kind for r in records]
        count = 1 + len(root.send("getDescendants"))
        assert kinds == ["BEGIN"] + ["CREATE"] * count + ["COMMIT"]
        (create,) = [r for r in records if r.kind == "CREATE" and r.payload["oid"] == root.oid]
        assert create.payload["attributes"]["YEAR"] == "1994"
        assert "parent" not in create.payload["attributes"]  # a root has none
        assert db.indexes.find("MMFDOC", "YEAR").lookup("1994") == {root.oid}
        db.close()

    def test_a_value_of_the_wrong_type_creates_nothing(self):
        db, loader = fresh("PARA")
        document = Element("MMFDOC")
        document.append_element("PARA", {"YEAR": "1994"})
        document.append_element("PARA").attributes["YEAR"] = 1994  # not a STRING
        before = db.object_count()
        with pytest.raises(SchemaError, match="does not match type STRING"):
            loader.load_document(document)
        assert db.object_count() == before


class TestTransactions:
    def test_rollback_leaves_no_object_of_the_tree(self, tmp_path):
        """A rolled-back load leaves no object, index entry or lock.  The
        classes it defined stay: DDL auto-commits, so recovery restores the
        same schema."""
        path = str(tmp_path / "db")
        db = Database(directory=path)
        loader = SGMLLoader(db)
        loader.promote_attribute("MMFDOC", "YEAR")
        kept = loader.load_document(build_document("Kept", ["alpha"], year="1994"))
        db.checkpoint()  # the promotion's index is durable
        before = state(db)
        txn = db.begin()
        root = loader.load_document(build_document(
            "Gone", ["beta", "gamma"], year="1994",
            sections=[{"title": "Sec", "paragraphs": ["delta"]}],
        ))
        assert db.object_exists(root.oid)
        txn.rollback()
        after = state(db)
        defined = set(after["schema"]) - set(before["schema"])
        assert "SECTION" in defined
        assert after == dict(
            before,
            schema=after["schema"],
            extents={**before["extents"], **dict.fromkeys(defined, [])},
        )
        assert db.indexes.find("MMFDOC", "YEAR").lookup("1994") == {kept.oid}
        assert db._locks._entries == {}
        db._wal.close()  # a crash: no checkpoint
        db._storage.close()
        assert load_image(path) == after


def load_image(directory, store=None):
    db = Database(directory=directory, store=store)
    SGMLLoader(db)  # attaches the navigation methods, writes nothing
    try:
        return state(db)
    finally:
        db._wal.close()
        db._storage.close()


class TestCrashAtEveryByte:
    def test_a_cut_reopens_to_before_or_after(self, tmp_path):
        """Cut the WAL at every byte of one document's commit: the reopened
        database holds the state before the load or the state after it."""
        path = str(tmp_path / "db")
        db = Database(directory=path)
        loader = SGMLLoader(db)
        loader.load_document(build_document("First", ["alpha"], year="1994"))
        before = state(db)
        db._wal._file.flush()
        base = db._wal._file.tell()
        document = build_document("Second", ["beta", "gamma"], year="1995")
        document.append_element("NOTE").append_text("a tag with no class yet")
        loader.load_document(document)
        db._wal._file.flush()
        end = db._wal._file.tell()
        after = state(db)
        # The SCHEMA record of NOTE commits alone, before the load's group.
        with open(os.path.join(path, "wal.log"), "rb") as fh:
            lines = fh.read()[base:end].splitlines(keepends=True)
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds[:3] == ["BEGIN", "SCHEMA", "COMMIT"]
        defined = base + sum(len(line) for line in lines[:3])
        only_the_class = dict(
            before, schema=after["schema"], extents={**before["extents"], "NOTE": []}
        )
        db._wal.close()  # a crash: no checkpoint
        db._storage.close()

        files = {}
        for name in os.listdir(path):
            with open(os.path.join(path, name), "rb") as fh:
                files[name] = fh.read()
        work = str(tmp_path / "work")
        for cut in range(base, end + 1):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            for name, data in files.items():
                with open(os.path.join(work, name), "wb") as fh:
                    fh.write(data[:cut] if name == "wal.log" else data)
            # A COMMIT line survives without its trailing newline.
            want = after if cut >= end - 1 else only_the_class if cut >= defined - 1 else before
            assert load_image(work) == want, f"cut at {cut}"


class TestReplayKeepsAttributeOrder:
    def test_the_batch_written_after_a_crash_equals_an_uncut_runs(self, tmp_path):
        """Replay restores each ``CREATE``'s attributes in the order they
        were written, so the object batch a checkpoint writes after a
        crash and reopen is, byte for byte, the one an uncut run writes."""

        def first_batch(path, crash):
            db = Database(directory=path)
            loader = SGMLLoader(db)
            loader.load_document(build_document(
                "Doc", ["alpha", "beta"], year="1994",
                sections=[{"title": "Sec", "paragraphs": ["gamma"]}],
            ))
            db.create_object(ELEMENT_CLASS, tag="X", content="b then a", b=1, a=2)
            if crash:
                db._wal.close()
                db._storage.close()
                db = Database(directory=path)
            db.checkpoint()
            (batch,) = db._storage.manifest["objects"]["batches"]
            try:
                return db._storage.file.read_record(*batch)
            finally:
                db.close()

        uncut = first_batch(str(tmp_path / "uncut"), crash=False)
        assert b'"b":1,"a":2' in uncut
        assert first_batch(str(tmp_path / "cut"), crash=True) == uncut


class TestDeleteInOnePass:
    @pytest.fixture
    def system(self, tmp_path):
        from repro.core import DocumentSystem

        system = DocumentSystem(directory=str(tmp_path / "sys"))
        dtd = mmf_dtd()
        system.register_dtd(dtd)
        collection = system.session.create_collection("collPara", "ACCESS p FROM p IN PARA")
        for title in ("Kept", "Removed"):
            system.add_document(build_document(title, ["alpha www", "beta nii"], sections=[
                {"title": "Sec", "paragraphs": ["gamma telnet"]},
            ]), dtd=dtd)
        system.session.index(collection)
        yield system, collection
        system.close()

    @staticmethod
    def reopened_matches(system, tmp_path):
        system.db._wal._file.flush()
        image = str(tmp_path / "image")
        shutil.copytree(str(tmp_path / "sys"), image)
        store = SingleFileStore(os.path.join(image, "irs.store"))
        return load_image(os.path.join(image, "db"), store) == state(system.db)

    def test_remove_logs_one_delete_per_element_and_no_write(self, system, tmp_path):
        """The shape of ``update_mix``'s remove: the collection forgets the
        paragraphs, then the document goes, all in one transaction."""
        system, collection = system
        db = system.db
        root = db.instances_of("MMFDOC")[-1]
        assert "Removed" in root.send("getTextContent")
        subtree = [root.oid] + [d.oid for d in root.send("getDescendants")]
        paras = [d.oid for d in root.send("getDescendants", "PARA")]
        objects = db.object_count()
        start = db._wal.next_lsn
        with db.begin() as txn:
            for oid in paras:
                system.session.remove(collection, oid)
            mark = db._wal.next_lsn
            assert system.delete_document(db.get_object(root.oid)) == len(subtree)
        records = [r for r in db._wal.records() if r.lsn >= start]
        assert records[0].kind == "BEGIN" and records[-1].kind == "COMMIT"
        assert {r.txn_id for r in records} == {txn.txn_id}
        deleted = [r for r in records if r.lsn >= mark]
        assert [r.kind for r in deleted] == ["DELETE"] * len(subtree) + ["COMMIT"]
        assert sorted(r.payload["oid"] for r in deleted[:-1]) == sorted(subtree)
        assert db.object_count() == objects - len(subtree)
        assert self.reopened_matches(system, tmp_path)

    def test_removing_an_inner_element_writes_its_parent_once(self, system, tmp_path):
        system, _collection = system
        db = system.db
        section = db.instances_of("SECTION")[0]
        parent = section.send("getParent")
        siblings = [oid for oid in parent.get("children") if oid != section.oid]
        subtree = [section.oid] + [d.oid for d in section.send("getDescendants")]
        with db.begin():
            mark = db._wal.next_lsn
            assert system.loader.remove_element(section) == len(subtree)
        records = [r for r in db._wal.records() if r.lsn >= mark]
        assert [r.kind for r in records] == ["WRITE"] + ["DELETE"] * len(subtree) + ["COMMIT"]
        assert records[0].payload["oid"] == parent.oid
        assert parent.get("children") == siblings
        assert self.reopened_matches(system, tmp_path)
