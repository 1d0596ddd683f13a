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
    collection = system.create_collection("paras", "ACCESS p FROM p IN PARA")
    system.index_collection(collection)
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
        system.index_collection(collection)
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
        """The store half is refused too: no manifest may name index
        generations the database checkpoint then fails to match."""
        system, collection, _ = populated(tmp_path)
        system.checkpoint()
        directory = str(tmp_path / "sys")
        files = [os.path.join(directory, "irs.store"), os.path.join(directory, "db", "objects.store")]
        sizes = [os.path.getsize(path) for path in files]
        txn = system.db.begin()
        collection.set("buffer", {})
        for refused in (system.checkpoint, system.pack, system.close):
            with pytest.raises(TransactionError):
                refused()
        assert [os.path.getsize(path) for path in files] == sizes
        txn.rollback()
        system.close()


class TestPackThroughSystem:
    def test_pack_checkpoints_first_then_compacts(self, tmp_path):
        system, collection, dtd = populated(tmp_path)
        system.checkpoint()
        # Dirty state: pack() must fold it in before compacting.
        system.add_document(
            build_document("Extra", ["extra packed paragraph"]), dtd=dtd
        )
        system.index_collection(collection)
        result = system.pack()
        assert result["packed"]
        expected = system.search(collection, "packed paragraph").to_dict()
        system.close()
        reopened = DocumentSystem(directory=str(tmp_path / "sys"))
        collection2 = next(iter(reopened.db.instances_of("COLLECTION")))
        assert reopened.search(collection2, "packed paragraph").to_dict() == expected
        reopened.close()


    def test_pack_rewrites_the_object_file_as_the_live_set(self, tmp_path):
        system, collection, dtd = populated(tmp_path)
        system.checkpoint()
        for round_ in range(3):
            para = system.db.instances_of("PARA")[round_]
            system.loader.update_content(para, f"rewritten paragraph {round_}")
            system.checkpoint()
        before = system.db.storage_stats()
        assert before["dead_bytes"] > 0
        objects = system.pack()["objects"]
        assert objects["objects_written"] == system.db.object_count()
        after = system.db.storage_stats()
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
        expected = system.search(collection, "telnet").to_dict()
        system.close()  # no explicit checkpoint() before this
        reopened = DocumentSystem(directory=str(tmp_path / "sys"))
        # Everything was checkpointed at close: nothing to recover, the
        # collection comes back lazily.
        assert reopened.engine.lazy_collection_names() == ["paras"]
        collection2 = next(iter(reopened.db.instances_of("COLLECTION")))
        assert reopened.search(collection2, "telnet").to_dict() == expected
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
        system.index_collection(collection)
        storage = system.health()["storage"]
        assert storage["dirty"]["documents"] > 0
        system.checkpoint()
        assert system.health()["storage"]["dirty"]["documents"] == 0
        system.close()

    def test_object_file_bytes_in_the_storage_section(self, tmp_path):
        system, collection, dtd = populated(tmp_path)
        system.checkpoint()
        objects = system.health()["storage"]["objects"]
        assert objects["path"].endswith(os.path.join("db", "objects.store"))
        assert objects["size_bytes"] == objects["live_bytes"] + objects["dead_bytes"]
        assert objects["live_bytes"] > 0
        system.close()

    def test_memory_system_storage_disabled(self):
        system = DocumentSystem()
        assert system.health()["storage"] == {"enabled": False}
        system.close()
