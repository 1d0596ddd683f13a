"""Delta-written ``doc_map`` equals the map a whole-attribute write leaves.

Update propagation writes collection membership as item sets and item
deletes applied to the stored dictionary in place.  Random sequences of
insert / modify / delete / propagate / checkpoint / crash / reopen, under
both propagation policies and with several IRS documents per object, are
held to three references after every step:

* a plain-dict *model* of who is a member with which text,
* the *engine*: the live IRS documents grouped by the OID they carry are
  exactly the stored map, ids in order, texts the member's segments,
* the *whole-attribute result*: a copy of the map as it was, mutated the
  way the pending operations read and replaced as one value.

A crash image (directory copied with the log flushed, nothing closed)
replays to the same stored map, and reopens to a system that passes the
same checks.
"""

import copy
import shutil
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DocumentSystem
from repro.core.collection import segment_text
from repro.oodb import Database
from repro.oodb.oid import OID
from repro.sgml.mmf import mmf_dtd
from repro.store import SingleFileStore

NAME = "paras"
WORDS = "telnet www nii gopher retrieval structure database hypermedia".split()

_text = st.lists(st.sampled_from(WORDS), min_size=1, max_size=7).map(" ".join)
_step = st.one_of(  # inserts and modifies listed twice: drawn twice as often
    st.tuples(st.just("insert"), _text),
    st.tuples(st.just("insert"), _text),
    st.tuples(st.just("modify"), st.integers(0, 50), _text),
    st.tuples(st.just("modify"), st.integers(0, 50), _text),
    st.tuples(st.just("delete"), st.integers(0, 50)),
    st.tuples(st.just("reinsert"), st.integers(0, 50)),
    st.tuples(st.just("propagate")),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("crash")),
    st.tuples(st.just("reopen")),
)


def open_system(directory):
    system = DocumentSystem(directory=directory)
    system.register_dtd(mmf_dtd())
    return system


def collection_of(system):
    return system.session.collection(NAME)


def engine_map(system):
    """``{oid: [(doc id, text), ...]}`` of the live IRS documents, by doc id."""
    grouped = {}
    documents = system.engine.collection(NAME).documents()
    for document in sorted(documents, key=lambda d: d.doc_id):
        grouped.setdefault(document.metadata["oid"], []).append(
            (document.doc_id, document.text)
        )
    return grouped


def check_engine(system):
    """Stored map == the live IRS documents grouped by the OID they carry."""
    stored = collection_of(system).get("doc_map")
    by_engine = engine_map(system)
    assert stored == {
        key: [doc_id for doc_id, _text in entries] for key, entries in by_engine.items()
    }
    assert collection_of(system).send("memberCount") == len(stored)
    return by_engine


def check(system, members, words):
    """Stored map == engine == model, for the propagated state ``members``."""
    by_engine = check_engine(system)
    assert set(by_engine) == set(members)
    for key, text in members.items():
        assert [piece for _id, piece in by_engine[key]] == segment_text(text, words)


def whole_attribute_result(before, pending, by_engine, alive):
    """What copy / mutate / replace-the-attribute leaves for ``pending``."""
    doc_map = dict(before)
    for op, key in pending:
        if op == "delete":
            doc_map.pop(key, None)
        elif alive(key):
            doc_map[key] = [doc_id for doc_id, _text in by_engine[key]]
    return doc_map


def recovered_doc_map(directory, collection_oid, scratch):
    """The stored map a kill -9 here would recover (object batches + WAL
    replay)."""
    image = f"{scratch}/image"
    shutil.rmtree(image, ignore_errors=True)
    shutil.copytree(directory, image)
    recovered = Database(directory=f"{image}/db", store=SingleFileStore(f"{image}/irs.store"))
    try:
        return copy.deepcopy(recovered.get_object(collection_oid).get("doc_map"))
    finally:
        recovered._wal.close()
        recovered._storage.close()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    policy=st.sampled_from(["deferred", "eager"]),
    words=st.sampled_from([0, 2, 3]),
    initial=st.lists(_text, min_size=0, max_size=4),
    steps=st.lists(_step, min_size=1, max_size=14),
)
def test_delta_written_doc_map_equals_model_engine_and_whole_write(
    policy, words, initial, steps
):
    scratch = tempfile.mkdtemp(prefix="docmap-")
    directory = f"{scratch}/sys"
    system = open_system(directory)
    try:
        db = system.db
        with db.begin():
            for text in initial:
                db.create_object("PARA", tag="PARA", content=text)
        collection = system.session.create_collection(
            NAME, "ACCESS p FROM p IN PARA", update_policy=policy, segment_words=words
        )
        system.session.index(collection)
        collection_oid = collection.oid
        #: Truth now, and truth as of the last propagation (what is stored).
        now = {str(o.oid): o.get("content") for o in db.instances_of("PARA")}
        propagated = dict(now)
        removed = []  # former members whose objects are still alive
        check(system, propagated, words)

        def propagate():
            nonlocal propagated
            target = collection_of(system)
            before = copy.deepcopy(target.get("doc_map"))
            pending = [tuple(entry) for entry in target.get("pending_ops") or []]
            target.send("propagateUpdates")
            propagated = dict(now)
            assert target.get("doc_map") == whole_attribute_result(
                before, pending, engine_map(system),
                lambda key: system.db.object_exists(OID.parse(key)),
            )

        for step in steps:
            kind = step[0]
            db, target = system.db, collection_of(system)
            keys = sorted(now)
            if kind == "insert":
                obj = db.create_object("PARA", tag="PARA", content=step[1])
                target.send("insertObject", obj)
                now[str(obj.oid)] = step[1]
            elif kind == "modify" and keys:
                key = keys[step[1] % len(keys)]
                obj = db.get_object(OID.parse(key))
                system.loader.update_content(obj, step[2])
                target.send("modifyObject", obj)
                now[key] = step[2]
            elif kind == "delete" and keys:
                key = keys[step[1] % len(keys)]
                obj = db.get_object(OID.parse(key))
                target.send("deleteObject", obj)
                if step[1] % 2:
                    db.delete_object(obj)
                else:
                    removed.append(key)  # leaves the collection, stays an object
                del now[key]
            elif kind == "reinsert" and removed:
                key = removed.pop(step[1] % len(removed))
                obj = db.get_object(OID.parse(key))
                target.send("insertObject", obj)
                now[key] = obj.get("content")
            elif kind == "propagate":
                propagate()
            elif kind == "checkpoint":
                system.checkpoint()
            elif kind == "crash":
                db._wal._file.flush()
                assert recovered_doc_map(directory, collection_oid, scratch) == (
                    target.get("doc_map")
                )
            elif kind == "reopen":
                system.close()
                system = open_system(directory)
            if policy == "eager":
                propagated = dict(now)
            check(system, propagated, words)

        # A kill here, then a full reopen.  Where the log ran ahead of the
        # store, recovery reindexes the replayed map from the objects as
        # they are now (somewhere between ``propagated`` and ``now``): map
        # and engine agree, and applying the pending rest lands on ``now``.
        system.db._wal._file.flush()
        image = f"{scratch}/killed"
        shutil.copytree(directory, image)
        system.close()
        system = open_system(image)
        check_engine(system)
        propagate()
        check(system, now, words)
    finally:
        system.close()
        shutil.rmtree(scratch, ignore_errors=True)
