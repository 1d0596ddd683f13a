"""What one propagation costs the log, pinned by counters, not by the clock.

A propagation writes the ``doc_map`` items it touched, ``index_gen``, the
emptied ``pending_ops`` and (when anything is buffered) the emptied buffer
as ONE logged group: O(pending operations) bytes whatever the collection
holds, one ``txn_id``, one fsync.
"""

import pytest

from repro import obs
from repro.core import DocumentSystem
from repro.sgml.mmf import mmf_dtd
from tests.support import logged_by

#: Pending operations per batch: 2 inserts, 2 same-shape modifies, 2 deletes.
K = 6
#: BEGIN + 4 doc_map ITEMs + index_gen + pending_ops + COMMIT, ~100 bytes each;
#: one whole-map WRITE of 5 000 members took about 150 kB.
BYTES_BOUND = 1500


def para(db, number):
    return db.create_object(
        "PARA", tag="PARA", content=f"telnet retrieval paragraph {number}", doc_order=number
    )


def build(directory, members, **collection_options):
    system = DocumentSystem(directory=str(directory))
    system.register_dtd(mmf_dtd())
    with system.db.begin():
        paras = [para(system.db, number) for number in range(members)]
    collection = system.session.create_collection(
        "paras", "ACCESS p FROM p IN PARA", update_policy="deferred", **collection_options
    )
    system.session.index(collection)
    return system, collection, paras


def record_batch(system, collection, paras, base):
    """Leave K operations pending; returns (inserted, modified, deleted) OIDs."""
    db = system.db
    with db.begin():
        inserted = [para(db, base + i) for i in range(2)]
        for obj in inserted:
            collection.send("insertObject", obj)
        for obj in paras[:2]:
            system.loader.update_content(obj, f"gopher rewrite {base}")
            collection.send("modifyObject", obj)
        for obj in paras[2:4]:
            collection.send("deleteObject", obj)
            db.delete_object(obj)
    assert len(collection.get("pending_ops")) == K
    return (
        [str(o.oid) for o in inserted],
        [str(o.oid) for o in paras[:2]],
        [str(o.oid) for o in paras[2:4]],
    )


def forced_propagation(system, collection):
    """Force the pending batch with a top-k query; returns (counters, records)."""
    _result, counters, records = logged_by(
        system.db, lambda: system.session.query(collection, "gopher", top_k=10)
    )
    return counters, records


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """One forced propagation of K operations at 500 and at 5 000 members."""
    out = {}
    for members in (500, 5000):
        system, collection, paras = build(tmp_path_factory.mktemp(f"m{members}"), members)
        before = dict(collection.get("doc_map"))
        generation = collection.get("index_gen")
        touched = record_batch(system, collection, paras, base=members)
        counters, records = forced_propagation(system, collection)
        out[members] = {
            "counters": counters,
            "records": records,
            "before": before,
            "after": dict(collection.get("doc_map")),
            "touched": touched,
            "generations": (generation, collection.get("index_gen")),
            "pending": collection.get("pending_ops"),
        }
        system.close()
    return out


class TestOneForcedPropagation:
    @pytest.mark.parametrize("members", [500, 5000])
    def test_log_bytes_are_bounded_by_the_batch(self, measured, members):
        assert measured[members]["counters"]["oodb.wal.bytes"] < BYTES_BOUND

    def test_log_bytes_do_not_depend_on_collection_size(self, measured):
        small = measured[500]["counters"]["oodb.wal.bytes"]
        large = measured[5000]["counters"]["oodb.wal.bytes"]
        # Same records; only OIDs, doc ids and LSNs have more digits.
        assert abs(large - small) <= 100

    @pytest.mark.parametrize("members", [500, 5000])
    def test_one_group_one_sync(self, measured, members):
        run = measured[members]
        assert run["counters"]["oodb.wal.fsyncs"] == 1
        assert run["counters"]["coupling.updates.forced_propagations"] == 1
        assert run["counters"]["coupling.updates.propagated"] == K
        records = run["records"]
        assert len({r.txn_id for r in records}) == 1
        # Two inserts and two deletes touch the map; a same-shape modify
        # replaces its document in place and leaves its item alone.
        assert [r.kind for r in records] == (
            ["BEGIN"] + ["ITEM"] * 4 + ["WRITE"] * 2 + ["COMMIT"]
        )
        assert [r.payload["attr"] for r in records[1:-1]] == (
            ["doc_map"] * 4 + ["index_gen", "pending_ops"]
        )
        assert run["counters"]["oodb.wal.appends"] == len(records)

    @pytest.mark.parametrize("members", [500, 5000])
    def test_the_delta_is_the_whole_change(self, measured, members):
        run = measured[members]
        inserted, modified, deleted = run["touched"]
        expected = {k: v for k, v in run["before"].items() if k not in deleted}
        assert set(run["after"]) == set(expected) | set(inserted)
        assert all(run["after"][k] == v for k, v in expected.items())
        assert all(len(run["after"][k]) == 1 for k in inserted)
        assert run["generations"][1] == run["generations"][0] + 1
        assert run["pending"] == []


class TestPolicies:
    def test_explicit_propagation_is_one_group_too(self, tmp_path):
        system, collection, paras = build(tmp_path, 40)
        record_batch(system, collection, paras, base=40)
        system.session.query(collection, "telnet")  # buffered: the reset is logged
        assert collection.get("pending_ops") == []
        record_batch(system, collection, paras[4:], base=50)
        applied, counters, records = logged_by(
            system.db, lambda: collection.send("propagateUpdates")
        )
        assert applied == K
        assert counters["oodb.wal.fsyncs"] == 1
        assert len({r.txn_id for r in records}) == 1
        assert [r.payload.get("attr") for r in records[1:-1]] == (
            ["doc_map"] * 4 + ["index_gen", "pending_ops", "buffer"]
        )
        assert collection.get("buffer") == {}
        system.close()

    def test_eager_update_is_one_group(self, tmp_path):
        system, collection, paras = build(tmp_path, 40)
        collection.set("update_policy", "eager")
        extra = para(system.db, 99)
        for op, obj, attrs in (
            ("insertObject", extra, ["doc_map", "index_gen"]),
            ("modifyObject", paras[0], ["index_gen"]),
            ("deleteObject", paras[1], ["doc_map", "index_gen"]),
        ):
            _none, counters, records = logged_by(
                system.db, lambda: collection.send(op, obj)
            )
            assert counters["oodb.wal.fsyncs"] == 1, op
            assert [r.payload.get("attr") for r in records[1:-1]] == attrs, op
            assert [records[0].kind, records[-1].kind] == ["BEGIN", "COMMIT"], op
        system.close()

    def test_inside_a_transaction_the_group_is_the_transaction(self, tmp_path):
        system, collection, paras = build(tmp_path, 40)
        record_batch(system, collection, paras, base=40)
        before = dict(collection.get("doc_map"))
        with obs.instrumentation() as (_tracer, metrics):
            txn = system.db.begin()
            collection.send("propagateUpdates")
            assert metrics.snapshot()["counters"].get("oodb.wal.fsyncs", 0) == 0
            txn.rollback()
        # Items are undone one by one: the map and the pending log are back.
        assert collection.get("doc_map") == before
        assert len(collection.get("pending_ops")) == K
        system.close()


class TestSegmentGranularity:
    def test_reshaped_member_is_one_item(self, tmp_path):
        """With several documents per object a modify that changes the piece
        count rewrites that object's id list — still one item."""
        system, collection, paras = build(tmp_path, 20, segment_words=2)
        assert all(len(ids) == 2 for ids in collection.get("doc_map").values())
        with system.db.begin():
            system.loader.update_content(paras[0], "one two three four five six seven")
            collection.send("modifyObject", paras[0])
        _n, _counters, records = logged_by(
            system.db, lambda: collection.send("propagateUpdates")
        )
        items = [r for r in records if r.kind == "ITEM"]
        assert len(items) == 1 and items[0].payload["path"] == [str(paras[0].oid)]
        assert len(collection.get("doc_map")[str(paras[0].oid)]) == 4
        system.close()
