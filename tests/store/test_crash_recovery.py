"""Crash fault injection: every interrupted write recovers deterministically.

Crashes are simulated the way a kill -9 looks to the filesystem: the store
file (or the whole system directory) is copied/truncated/bit-flipped at a
chosen point and reopened.  The invariant under test is the one the paper's
coupling needs: after recovery, rankings are bit-identical to a run that
never crashed — under all three retrieval models.
"""

import os
import shutil

import pytest

from repro.core.system import DocumentSystem
from repro.errors import StoreCorruptionError
from repro.irs.engine import IRSEngine
from repro.irs.segments.segment import SegmentConfig
from repro.sgml.mmf import build_document, mmf_dtd
from repro.store import SingleFileStore, StoreFile, blocks

MODELS = ("inquery", "vector", "boolean")


def build_engine():
    engine = IRSEngine(segment_config=SegmentConfig(seal_document_count=3))
    engine.create_collection("docs")
    for i in range(8):
        engine.index_document(
            "docs", f"structured document retrieval number {i}", {"oid": f"O{i}"}
        )
    return engine


def rankings(engine, name="docs", query="structured retrieval"):
    return {
        model: engine.query(name, query, model=model).values for model in MODELS
    }


class TestStoreLevelCrashes:
    """Faults injected directly into the store file between checkpoints."""

    def checkpointed_store(self, tmp_path):
        engine = build_engine()
        path = str(tmp_path / "irs.store")
        store = SingleFileStore(path)
        store.checkpoint(engine)
        expected = rankings(engine)
        return engine, store, path, expected

    @pytest.mark.parametrize("torn_bytes", [1, 7, 100, 1000])
    def test_torn_tail_after_second_checkpoint(self, tmp_path, torn_bytes):
        engine, store, path, expected = self.checkpointed_store(tmp_path)
        first_end = store.file.size
        engine.index_document("docs", "uncommitted extra document", {})
        store.checkpoint(engine)
        store.close()
        size = os.path.getsize(path)
        # Tear at most back to the end of the first checkpoint — its own
        # bytes are durable (commit fsyncs before returning).
        cut = min(torn_bytes, size - first_end)
        os.truncate(path, size - cut)
        recovered = SingleFileStore(path)
        # Whatever the cut destroyed, recovery lands on a *valid* manifest:
        # either checkpoint 2 survived intact or we are back at checkpoint 1.
        manifest_id = recovered.checkpoint_id
        assert manifest_id in (1, 2)
        restored = recovered.load_engine()
        got = rankings(restored)
        if manifest_id == 1:
            assert got == expected
        else:
            assert set(got["inquery"]) >= set(expected["inquery"])
        recovered.close()

    def test_every_truncation_point_yields_first_checkpoint(self, tmp_path):
        engine = build_engine()
        path = str(tmp_path / "irs.store")
        store = SingleFileStore(path)
        store.checkpoint(engine)
        expected = rankings(engine)
        first_end = store.file.size
        engine.index_document("docs", "later document", {})
        store.checkpoint(engine)
        store.close()
        final_size = os.path.getsize(path)
        # Any crash point strictly inside the second checkpoint's bytes
        # must recover to exactly the first checkpoint.
        for cut in range(first_end + 1, final_size, 97):
            work = str(tmp_path / "work.store")
            shutil.copyfile(path, work)
            os.truncate(work, cut)
            recovered = SingleFileStore(work)
            assert recovered.checkpoint_id == 1, f"cut at {cut}"
            assert rankings(recovered.load_engine()) == expected, f"cut at {cut}"
            recovered.close()

    def test_bit_flip_in_live_segment_fails_loud(self, tmp_path):
        engine, store, path, _ = self.checkpointed_store(tmp_path)
        entry = store.manifest["collections"]["docs"]
        segment = entry["segments"][0]
        store.close()
        with open(path, "r+b") as fh:
            fh.seek(segment["offset"] + blocks.RECORD_HEADER_SIZE + 5)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0x40]))
        recovered = SingleFileStore(path)
        restored = recovered.load_engine()
        # Never a silently wrong index: the flip surfaces on first touch.
        with pytest.raises(StoreCorruptionError):
            restored.collection("docs")
        recovered.close()

    def test_bit_flip_in_dead_space_is_harmless(self, tmp_path):
        engine, store, path, _ = self.checkpointed_store(tmp_path)
        # Checkpoint 1's manifest record is guaranteed dead once
        # checkpoint 2 commits — flip a bit inside it.
        dead_offset = store.file.manifest_offset
        engine.replace_document("docs", 1, "rewritten document text")
        store.checkpoint(engine)
        expected = rankings(engine)
        store.close()
        with open(path, "r+b") as fh:
            fh.seek(dead_offset + blocks.RECORD_HEADER_SIZE + 3)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0x20]))
        recovered = SingleFileStore(path)
        restored = recovered.load_engine()
        assert rankings(restored) == expected
        recovered.close()


def encoded_objects(db):
    """Every object of ``db`` in the store's value encoding, by OID."""
    from repro.oodb.store import encode_value

    return {
        obj.oid.value: (obj.class_name, {
            k: encode_value(v) for k, v in db._store.read_all(obj.oid).items()
        })
        for obj in db.iter_objects()
    }


def open_database(directory):
    """The database half of a system directory alone: its image in
    ``irs.store`` and its WAL in ``db/``, recovered without the engine."""
    from repro.oodb import Database

    store = SingleFileStore(os.path.join(directory, "irs.store"))
    return Database(directory=os.path.join(directory, "db"), store=store)


def crash(db):
    """Drop ``db`` as a kill would: no checkpoint."""
    db._wal.close()
    db._storage.close()


def _make_system(path):
    system = DocumentSystem(directory=path)
    dtd = mmf_dtd()
    system.register_dtd(dtd)
    return system, dtd


class TestSystemLevelCrashes:
    """The coordinated WAL + store crash window (kill between commits)."""

    def populated(self, tmp_path):
        path = str(tmp_path / "sys")
        system, dtd = _make_system(path)
        for i in range(6):
            system.add_document(
                build_document(
                    f"T{i}", [f"telnet retrieval text {i}", "www structure access"]
                ),
                dtd=dtd,
            )
        collection = system.session.create_collection("paras", "ACCESS p FROM p IN PARA")
        system.session.index(collection)
        return path, system, collection, dtd

    def _crash_image(self, path, tmp_path, tag):
        image = str(tmp_path / f"crash_{tag}")
        shutil.copytree(path, image)
        return image

    def _reopened_rankings(self, image, query="telnet retrieval"):
        system = DocumentSystem(directory=image)
        collection = next(iter(system.db.instances_of("COLLECTION")))
        got = {
            model: system.session.query(collection, query, model=model).to_dict()
            for model in MODELS
        }
        system.close()
        return got

    def expected(self, system, collection, query="telnet retrieval"):
        return {
            model: system.session.query(collection, query, model=model).to_dict()
            for model in MODELS
        }

    def test_kill_between_wal_commit_and_checkpoint(self, tmp_path):
        path, system, collection, dtd = self.populated(tmp_path)
        system.checkpoint()
        # Mutate through the WAL, then "crash" before the store checkpoint.
        system.add_document(
            build_document("Late", ["late telnet paragraph"]), dtd=dtd
        )
        system.session.index(collection)
        image = self._crash_image(path, tmp_path, "wal_ahead")
        expected = self.expected(system, collection)
        system.close()
        assert self._reopened_rankings(image) == expected

    def test_kill_before_any_checkpoint(self, tmp_path):
        path, system, collection, dtd = self.populated(tmp_path)
        image = self._crash_image(path, tmp_path, "no_ckpt")
        expected = self.expected(system, collection)
        system.close()
        assert self._reopened_rankings(image) == expected

    def test_kill_after_clean_checkpoint(self, tmp_path):
        path, system, collection, dtd = self.populated(tmp_path)
        system.checkpoint()
        image = self._crash_image(path, tmp_path, "clean")
        expected = self.expected(system, collection)
        system.close()
        reopened = DocumentSystem(directory=image)
        # Clean image: nothing to reindex, the collection loads lazily.
        assert reopened.engine.lazy_collection_names() == ["paras"]
        collection2 = next(iter(reopened.db.instances_of("COLLECTION")))
        got = {
            model: reopened.session.query(collection2, "telnet retrieval", model=model).to_dict()
            for model in MODELS
        }
        reopened.close()
        assert got == expected

    def test_kill_between_deferred_propagation_and_checkpoint(self, tmp_path):
        path, system, collection, dtd = self.populated(tmp_path)
        system.checkpoint()
        root = system.add_document(
            build_document("Prop", ["propagated telnet update"]), dtd=dtd
        )
        para = root.get("children")[1]
        para_obj = system.db.get_object(para)
        collection.send("insertObject", para_obj)
        collection.send("propagateUpdates")
        image = self._crash_image(path, tmp_path, "propagated")
        expected = self.expected(system, collection)
        system.close()
        assert self._reopened_rankings(image) == expected

    def test_kill_after_a_checkpoint_inside_a_transient_block(self, tmp_path):
        """Transient members move ``index_gen`` on entry and on exit, so a
        store checkpointed inside the block is detectably stale after it."""
        from repro.core.transient import transient_members

        path, system, collection, dtd = self.populated(tmp_path)
        system.checkpoint()
        with transient_members(collection, system.db.instances_of("MMFDOC")):
            system.checkpoint()
        system.db._wal._file.flush()
        image = self._crash_image(path, tmp_path, "transient")
        expected = self.expected(system, collection)
        system.close()
        reopened = DocumentSystem(directory=image)
        collection2 = next(iter(reopened.db.instances_of("COLLECTION")))
        doc_map = collection2.get("doc_map")
        irs = reopened.engine.collection("paras")
        assert irs.document_count == sum(map(len, doc_map.values()))
        for model in MODELS:
            ranked = reopened.session.query(collection2, "telnet retrieval", model=model)
            assert {str(oid) for oid in ranked.oids()} <= set(doc_map)
            assert ranked.to_dict() == expected[model]
        reopened.close()

    def test_kill_after_updating_a_collection_stored_as_shards(self, tmp_path):
        """A collection an older build stored as a ``sharded`` entry
        (``fixtures/sharded_system``), imported as ``segmented`` at open,
        when a propagation commits to the WAL and the process dies:
        reopening replays it onto the imported segments."""
        path = str(tmp_path / "sys")
        fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
        shutil.copytree(os.path.join(fixtures, "sharded_system"), path)
        system = DocumentSystem(directory=path)
        assert system.store.manifest["collections"]["paras"]["layout"] == "segmented"
        (collection,) = system.db.instances_of("COLLECTION")
        para = system.db.instances_of("PARA")[0]
        system.loader.update_content(para, "telnet telnet retrieval rewritten")
        collection.send("modifyObject", para)
        collection.send("propagateUpdates")
        image = self._crash_image(path, tmp_path, "sharded_entry")
        expected = self.expected(system, collection)
        system.close()
        assert self._reopened_rankings(image) == expected

    def test_torn_store_tail_plus_wal_ahead(self, tmp_path):
        """Double fault: WAL ahead of the store AND the store tail torn."""
        path, system, collection, dtd = self.populated(tmp_path)
        system.checkpoint()
        system.add_document(
            build_document("Torn", ["torn tail telnet paragraph"]), dtd=dtd
        )
        system.session.index(collection)
        image = self._crash_image(path, tmp_path, "torn")
        expected = self.expected(system, collection)
        system.close()
        store_path = os.path.join(image, "irs.store")
        with open(store_path, "ab") as fh:
            fh.write(b"\x00garbage from a torn write\x00" * 3)
        assert self._reopened_rankings(image) == expected

    def test_kill_with_buffer_item_records_in_the_wal(self, tmp_path):
        """Buffered results and derived values reach the WAL as ITEM deltas;
        a kill before the next checkpoint replays them bit-identically."""
        import copy

        from repro.oodb.wal import WriteAheadLog

        path, system, collection, dtd = self.populated(tmp_path)
        system.checkpoint()
        bindings = {"c": collection}
        system.session.query(collection, "telnet retrieval")
        system.session.execute(
            "ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(c, 'www') > 0.4", bindings
        )
        for doc in system.db.instances_of("MMFDOC"):
            system.session.find_value(collection, "telnet retrieval", doc)
        buffered = copy.deepcopy(collection.get("buffer"))
        documents = system.db.extent_size("MMFDOC")
        assert len(buffered["|www"]) == len(buffered["|telnet retrieval"]) >= documents
        image = self._crash_image(path, tmp_path, "items")
        expected = self.expected(system, collection)
        system.close()
        # The log's live records: those from the mark the last checkpoint
        # committed on (older ones may follow them in the file).
        with StoreFile(os.path.join(image, "irs.store")) as file:
            mark = file.read_manifest()["objects"]["wal_mark"]
        with WriteAheadLog(os.path.join(image, "db", "wal.log"), mark=mark) as log:
            kinds = [record.kind for record in log.records()]
        assert kinds.count("ITEM") == 2 + 2 * documents  # 2 results + the derived values
        assert "WRITE" not in kinds  # no whole-buffer copies
        reopened = DocumentSystem(directory=image)
        collection2 = next(iter(reopened.db.instances_of("COLLECTION")))
        assert collection2.get("buffer") == buffered
        assert reopened.engine.lazy_collection_names() == ["paras"]  # no reindex
        reopened.close()
        assert self._reopened_rankings(image) == expected

    @pytest.mark.parametrize("method", ["propagateUpdates", "indexObjects"])
    def test_kill_at_every_byte_of_one_membership_group(self, tmp_path, method):
        """A propagation (``doc_map`` items) and an ``indexObjects`` (the
        whole ``doc_map``) are each one logged group with ``index_gen``, the
        emptied ``pending_ops`` and the buffer reset.  Cut the log at every
        byte of it: the database reopens to exactly the before- or the
        after-state, and either way the system answers like a fresh
        rebuild."""
        import copy

        path, system, collection, dtd = self.populated(tmp_path)
        db = system.db
        system.session.query(collection, "telnet retrieval")  # something buffered
        system.checkpoint()
        root = system.add_document(
            build_document("Late", ["late telnet paragraph", "second late retrieval"]),
            dtd=dtd,
        )
        old = db.instances_of("PARA")[:2]
        with db.begin():
            for para in root.send("getDescendants", "PARA"):
                collection.send("insertObject", para)
            system.loader.update_content(old[0], "telnet telnet rewritten retrieval")
            collection.send("modifyObject", old[0])
            collection.send("deleteObject", old[1])
            system.loader.remove_element(old[1])

        def state(database):
            obj = database.get_object(collection.oid)
            return {
                attr: copy.deepcopy(obj.get(attr))
                for attr in ("doc_map", "pending_ops", "index_gen", "buffer")
            }

        # The log's end, not the file's: a checkpoint resets the log in
        # place, and older records may lie behind the new ones.
        before = state(db)
        db._wal._file.flush()
        base = db._wal._file.tell()
        assert len(before["pending_ops"]) == 4
        collection.send(method)
        db._wal._file.flush()
        end = db._wal._file.tell()
        after = state(db)
        assert before["pending_ops"] and after["pending_ops"] == []
        assert before["buffer"] and after["buffer"] == {}
        assert before["doc_map"] != after["doc_map"]
        image = self._crash_image(path, tmp_path, "group")
        expected = self.expected(system, collection)
        system.session.index(collection)  # the fresh rebuild of the same documents
        assert self.expected(system, collection) == expected
        system.close()

        work = str(tmp_path / "work")
        for cut in range(base, end + 1):
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(image, work)
            os.truncate(os.path.join(work, "db", "wal.log"), cut)
            recovered = open_database(work)
            # The COMMIT line survives without its trailing newline.
            assert state(recovered) == (after if cut >= end - 1 else before), f"cut at {cut}"
            crash(recovered)
        for cut in sorted({base, end - 2, end - 1, end, *range(base, end, 41)}):
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(image, work)
            os.truncate(os.path.join(work, "db", "wal.log"), cut)
            assert self._reopened_rankings(work) == expected, f"cut at {cut}"

    def test_kill_at_every_byte_of_one_combined_checkpoint(self, tmp_path):
        """Cut ``irs.store`` at every byte of one checkpoint: the object
        batch, the index records and the manifest with its footer.  Before
        the footer both halves open from the previous manifest plus the
        WAL, which the reset has not overwritten yet; at the end from the
        new manifest alone.  Either way every object is as committed, and
        the system ranks like a fresh rebuild."""
        path, system, collection, dtd = self.populated(tmp_path)
        db = system.db
        system.checkpoint()
        root = system.add_document(build_document("Late", ["late telnet paragraph"]), dtd=dtd)
        for para in root.send("getDescendants", "PARA"):
            collection.send("insertObject", para)
        para = db.instances_of("PARA")[0]
        system.loader.update_content(para, "telnet telnet rewritten retrieval")
        collection.send("modifyObject", para)
        collection.send("propagateUpdates")
        store_path = os.path.join(path, "irs.store")
        base, old_mark = os.path.getsize(store_path), system.store.manifest["objects"]["wal_mark"]
        stats = system.checkpoint()
        end, new_mark = os.path.getsize(store_path), system.store.manifest["objects"]["wal_mark"]
        assert stats["objects_written"] > 0 and stats["records_appended"] > 1
        assert len(system.store.manifest["objects"]["batches"]) == 2 and new_mark > old_mark
        image = self._crash_image(path, tmp_path, "batch")
        committed = encoded_objects(db)
        expected = self.expected(system, collection)
        system.session.index(collection)  # the fresh rebuild of the same documents
        assert self.expected(system, collection) == expected
        system.close()

        work = str(tmp_path / "work")
        shutil.copytree(image, work)
        wal_path = os.path.join(work, "db", "wal.log")
        with open(wal_path, "rb") as fh:
            wal = fh.read()
        # A cut never moves the surviving prefix: truncate one copy from
        # the end backwards, and put the log back as it was each time.
        for cut in range(end, base - 1, -1):
            os.truncate(os.path.join(work, "irs.store"), cut)
            with open(wal_path, "wb") as fh:
                fh.write(wal)
            recovered = open_database(work)
            mark = recovered._storage.manifest["objects"]["wal_mark"]
            assert mark == (new_mark if cut == end else old_mark), f"cut at {cut}"
            assert encoded_objects(recovered) == committed, f"cut at {cut}"
            crash(recovered)
        for cut in sorted({base, end - 1, end, *range(base, end, 97)}):
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(image, work)
            os.truncate(os.path.join(work, "irs.store"), cut)
            assert self._reopened_rankings(work) == expected, f"cut at {cut}"

    def test_kill_at_every_byte_of_the_first_records_after_a_reset(self, tmp_path):
        """After a checkpoint the log's next group overwrites older records
        from offset 0.  Cut that write at every byte — the new bytes up to
        the cut, the older ones behind it — and the database reopens to
        exactly the checkpointed state or the one after the group, and
        ranks like a fresh rebuild."""
        from repro.oodb import Database

        path, system, collection, dtd = self.populated(tmp_path)
        db = system.db
        system.session.query(collection, "telnet retrieval")  # something buffered
        root = system.add_document(
            build_document("Late", ["late telnet paragraph", "second late retrieval"]),
            dtd=dtd,
        )
        old = db.instances_of("PARA")[:2]
        with db.begin():
            for para in root.send("getDescendants", "PARA"):
                collection.send("insertObject", para)
            system.loader.update_content(old[0], "telnet telnet rewritten retrieval")
            collection.send("modifyObject", old[0])
            collection.send("deleteObject", old[1])
            system.loader.remove_element(old[1])
        system.checkpoint()  # the pending operations are durable, the log reset
        wal_path = os.path.join(path, "db", "wal.log")
        with open(wal_path, "rb") as fh:
            older = fh.read()
        before = encoded_objects(db)
        collection.send("propagateUpdates")
        db._wal._file.flush()
        end = db._wal._file.tell()
        with open(wal_path, "rb") as fh:
            written = fh.read()
        after = encoded_objects(db)
        assert before != after and written[end:] == older[end:]
        image = self._crash_image(path, tmp_path, "reset")
        expected = self.expected(system, collection)
        system.session.index(collection)  # the fresh rebuild of the same documents
        assert self.expected(system, collection) == expected
        system.close()

        def crash_at(cut, directory):
            with open(os.path.join(directory, "wal.log"), "r+b") as fh:
                fh.write(written[:cut] + older[cut:])
                fh.truncate()

        work = str(tmp_path / "work")
        for cut in range(0, end + 1):
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(image, work)
            crash_at(cut, os.path.join(work, "db"))
            recovered = open_database(work)
            got = encoded_objects(recovered)
            # A COMMIT line cut before its newline verifies only when the
            # older byte behind it happens to be one.
            assert got == (after if cut == end else before) or cut == end - 1, f"cut at {cut}"
            assert got in (before, after), f"cut at {cut}"
            crash(recovered)
        for cut in sorted({0, end - 2, end - 1, end, *range(0, end, 41)}):
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(image, work)
            crash_at(cut, os.path.join(work, "db"))
            assert self._reopened_rankings(work) == expected, f"cut at {cut}"
