"""DocumentSystem.checkpoint()/pack() and the session/health surfaces."""

import os

import pytest

from repro.core.system import DocumentSystem
from repro.errors import StoreError, TransactionError
from repro.sgml.mmf import build_document, mmf_dtd


def populated(tmp_path, name="sys"):
    system = DocumentSystem(directory=str(tmp_path / name))
    dtd = mmf_dtd()
    system.register_dtd(dtd)
    for i in range(4):
        system.add_document(
            build_document(f"T{i}", [f"checkpointed text {i}", "www telnet"]),
            dtd=dtd,
        )
    collection = system.session.create_collection("paras", "ACCESS p FROM p IN PARA")
    system.session.index(collection)
    return system, collection, dtd


class TestCheckpoint:
    def test_checkpoint_returns_stats(self, tmp_path):
        system, _, _ = populated(tmp_path)
        stats = system.checkpoint()
        assert stats["checkpoint_id"] >= 1
        assert stats["seconds"] >= 0.0
        assert stats["size_bytes"] > 0
        system.close()

    def test_second_checkpoint_is_incremental(self, tmp_path):
        system, _, _ = populated(tmp_path)
        system.checkpoint()
        again = system.checkpoint()
        assert again["records_appended"] == 0
        assert again["records_reused"] > 0
        system.close()

    def test_checkpoint_resets_the_wal_in_place(self, tmp_path):
        system, collection, dtd = populated(tmp_path)
        wal_path = os.path.join(str(tmp_path / "sys"), "db", "wal.log")
        size = os.path.getsize(wal_path)
        assert size > 0
        system.checkpoint()
        assert len(system.db._wal) == 0
        assert os.path.getsize(wal_path) == size  # overwritten later, never truncated
        system.close()
        reopened = DocumentSystem(directory=str(tmp_path / "sys"))
        assert len(reopened.db._wal) == 0  # nothing from the mark on
        reopened.close()

    def test_memory_system_cannot_checkpoint(self):
        system = DocumentSystem()
        with pytest.raises(StoreError):
            system.checkpoint()
        with pytest.raises(StoreError):
            system.pack()
        system.close()

    def test_checkpoint_records_generations_in_the_store_only(self, tmp_path):
        system, collection, dtd = populated(tmp_path)
        system.checkpoint()
        directory = str(tmp_path / "sys")
        assert os.path.isfile(os.path.join(directory, "irs.store"))
        assert not os.path.exists(os.path.join(directory, "irs_index"))
        first = system.store.gens()
        assert list(first) == [collection.get("irs_name")]
        system.add_document(build_document("T9", ["one more paragraph"]), dtd=dtd)
        system.session.index(collection)
        system.checkpoint()
        second = system.store.gens()
        assert second[collection.get("irs_name")] > first[collection.get("irs_name")]
        system.close()

    def test_session_checkpoint_inline(self, tmp_path):
        system, _, _ = populated(tmp_path)
        stats = system.session.checkpoint()
        assert stats["checkpoint_id"] >= 1
        system.close()

    def test_session_checkpoint_through_pool(self, tmp_path):
        system, _, _ = populated(tmp_path)
        session = system.open_session(workers=2)
        stats = session.checkpoint()
        assert stats["checkpoint_id"] >= 1
        system.close()


class TestOpenTransaction:
    def test_checkpoint_writes_neither_half_while_a_transaction_is_open(self, tmp_path):
        """The IRS half is refused too: the store file is not written."""
        system, collection, _ = populated(tmp_path)
        system.checkpoint()
        store_path = os.path.join(str(tmp_path / "sys"), "irs.store")
        size = os.path.getsize(store_path)
        txn = system.db.begin()
        collection.set("buffer", {})
        for refused in (system.checkpoint, system.pack, system.close):
            with pytest.raises(TransactionError):
                refused()
        assert os.path.getsize(store_path) == size
        txn.rollback()
        system.close()


class TestOneCommit:
    """Both halves of the coupling live in ``irs.store``: a checkpoint is
    one commit of it and then one WAL reset, and ``pack`` rewrites it
    alone."""

    def test_a_checkpoint_commits_once_then_resets_the_log(self, tmp_path, monkeypatch):
        from repro.oodb.wal import WriteAheadLog
        from repro.store.file import StoreFile

        system, collection, dtd = populated(tmp_path)
        system.checkpoint()
        system.add_document(build_document("More", ["one more telnet paragraph"]), dtd=dtd)
        system.session.index(collection)
        calls = []
        for owner, name in ((StoreFile, "commit"), (WriteAheadLog, "reset")):
            original = getattr(owner, name)

            def spy(self, *args, _original=original, _name=name):
                calls.append((_name, getattr(self, "path", None)))
                return _original(self, *args)

            monkeypatch.setattr(owner, name, spy)
        stats = system.checkpoint()
        assert stats["objects_written"] > 0 and stats["records_appended"] > 1
        assert calls == [("commit", system.store.file.path), ("reset", None)]
        manifest = system.store.manifest
        assert manifest["objects"]["wal_mark"] == system.db._wal.next_lsn
        assert manifest["gens"] == {collection.get("irs_name"): collection.get("index_gen")}
        monkeypatch.undo()
        system.close()
        assert sorted(os.listdir(str(tmp_path / "sys"))) == ["db", "irs.store"]
        assert os.listdir(str(tmp_path / "sys" / "db")) == ["wal.log"]

    def test_pack_rewrites_one_file(self, tmp_path, monkeypatch):
        system, collection, _ = populated(tmp_path)
        replaced = []
        original = os.replace

        def spy(source, target):
            replaced.append(target)
            return original(source, target)

        monkeypatch.setattr(os, "replace", spy)
        system.pack()
        assert replaced == [system.store.path]
        monkeypatch.undo()
        system.close()


class TestPackThroughSystem:
    def test_pack_checkpoints_first_then_compacts(self, tmp_path):
        system, collection, dtd = populated(tmp_path)
        system.checkpoint()
        # Dirty state: pack() must fold it in before compacting.
        system.add_document(
            build_document("Extra", ["extra packed paragraph"]), dtd=dtd
        )
        system.session.index(collection)
        result = system.pack()
        assert result["packed"]
        expected = system.session.query(collection, "packed paragraph").to_dict()
        system.close()
        reopened = DocumentSystem(directory=str(tmp_path / "sys"))
        collection2 = next(iter(reopened.db.instances_of("COLLECTION")))
        assert reopened.session.query(collection2, "packed paragraph").to_dict() == expected
        reopened.close()


    def test_pack_rewrites_the_objects_as_the_live_set(self, tmp_path):
        system, collection, dtd = populated(tmp_path)
        system.checkpoint()
        for round_ in range(3):
            para = system.db.instances_of("PARA")[round_]
            system.loader.update_content(para, f"rewritten paragraph {round_}")
            system.checkpoint()
        before = system.store.stats()
        assert before["dead_bytes"] > 0
        assert len(system.store.manifest["objects"]["batches"]) == 4
        system.pack()
        (batch,) = system.store.manifest["objects"]["batches"]
        lines = system.store.file.read_record(*batch).split(b"\n")
        assert len(lines) == system.db.object_count()
        after = system.store.stats()
        assert after["dead_bytes"] == 0 and after["size_bytes"] < before["size_bytes"]
        assert not os.path.exists(after["path"] + ".pack")
        expected = {oid: system.db.read_attributes(oid) for oid in system.db._store.all_oids()}
        system.close()
        reopened = DocumentSystem(directory=str(tmp_path / "sys"))
        assert {
            oid: reopened.db.read_attributes(oid) for oid in reopened.db._store.all_oids()
        } == expected
        reopened.close()


class TestNoBlockFreeing:
    """A checkpoint or a restart frees no disk block: it neither replaces,
    truncates nor removes a file, nor opens an existing one for writing
    from scratch (``pack`` and torn-tail recovery are the exceptions)."""

    def test_checkpoints_closes_and_reopens_free_no_blocks(self, tmp_path, monkeypatch):
        import builtins

        path = str(tmp_path / "sys")
        system, collection, dtd = populated(tmp_path)
        system.checkpoint()
        calls = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls.append((name, args))
                return real(*args, **kwargs)
            return wrapper

        for name in ("replace", "rename", "truncate", "ftruncate", "remove", "unlink"):
            monkeypatch.setattr(os, name, spy(name, getattr(os, name)))
        real_open = builtins.open

        def guarded_open(file, mode="r", *args, **kwargs):
            if "w" in mode and not isinstance(file, int) and os.path.exists(file):
                calls.append(("open", file, mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", guarded_open)

        def files():
            found = {}
            for root, _dirs, names in os.walk(path):
                for name in names:
                    info = os.stat(os.path.join(root, name))
                    found[os.path.join(root, name)] = (info.st_ino, info.st_size)
            return found

        seen = files()
        for round_ in range(3):
            system.add_document(
                build_document(f"R{round_}", [f"round {round_} telnet"]), dtd=dtd
            )
            para = system.db.instances_of("PARA")[round_]
            system.loader.update_content(para, f"rewritten in round {round_}")
            collection.send("modifyObject", para)
            for _ in range(2):
                system.session.checkpoint()
                now = files()
                for name, (inode, size) in seen.items():
                    assert now[name][0] == inode and now[name][1] >= size, name
                seen = now
            system.close()
            system = DocumentSystem(directory=path)
            collection = next(iter(system.db.instances_of("COLLECTION")))
        system.close()
        assert calls == []


class TestCloseSemantics:
    def test_close_checkpoints_automatically(self, tmp_path):
        system, collection, _ = populated(tmp_path)
        expected = system.session.query(collection, "telnet").to_dict()
        system.close()  # no explicit checkpoint() before this
        reopened = DocumentSystem(directory=str(tmp_path / "sys"))
        # Everything was checkpointed at close: nothing to recover, the
        # collection comes back lazily.
        assert reopened.engine.lazy_collection_names() == ["paras"]
        collection2 = next(iter(reopened.db.instances_of("COLLECTION")))
        assert reopened.session.query(collection2, "telnet").to_dict() == expected
        reopened.close()


class TestHealthStorage:
    def test_store_mode_reports_storage_section(self, tmp_path):
        system, _, _ = populated(tmp_path)
        system.checkpoint()
        storage = system.health()["storage"]
        assert storage["enabled"] is True
        assert storage["size_bytes"] > 0
        assert storage["checkpoints"] >= 1
        assert storage["dead_ratio"] >= 0.0
        assert "needs_pack" in storage
        assert storage["dirty"]["documents"] == 0
        system.close()

    def test_dirty_documents_tracked(self, tmp_path):
        system, collection, dtd = populated(tmp_path)
        system.checkpoint()
        system.add_document(
            build_document("Dirty", ["unsaved paragraph"]), dtd=dtd
        )
        system.session.index(collection)
        storage = system.health()["storage"]
        assert storage["dirty"]["documents"] > 0
        system.checkpoint()
        assert system.health()["storage"]["dirty"]["documents"] == 0
        system.close()

    def test_the_objects_dead_bytes_reach_the_pack_verdict(self, tmp_path):
        """One storage section covers both halves: an object rewritten at
        every checkpoint fills batches that die once a batch rewrites the
        live set, and ``needs_pack`` counts them; ``pack`` gives them back."""
        system, collection, _ = populated(tmp_path)
        system.checkpoint()
        live = system.db.object_count()
        (doc, *_others) = system.db.instances_of("MMFDOC")
        for round_ in range(66):
            doc.set("note", f"{round_:02d}" + "x" * 30_000)
            system.checkpoint()
        assert len(system.store.manifest["objects"]["batches"]) < 66  # rewritten
        storage = system.health()["storage"]
        assert "objects" not in storage and live < 64
        assert storage["size_bytes"] == storage["live_bytes"] + storage["dead_bytes"]
        assert storage["dead_bytes"] > 60 * 30_000
        assert storage["needs_pack"] and system.health()["status"] == "degraded"
        system.pack()
        storage = system.health()["storage"]
        assert storage["dead_bytes"] == 0 and not storage["needs_pack"]
        system.close()

    def test_memory_system_storage_disabled(self):
        system = DocumentSystem()
        assert system.health()["storage"] == {"enabled": False}
        system.close()
