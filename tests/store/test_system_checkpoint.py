"""DocumentSystem.checkpoint()/pack() and the session/health surfaces."""

import os

import pytest

from repro.core.system import DocumentSystem
from repro.errors import StoreError
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

    def test_checkpoint_truncates_the_wal(self, tmp_path):
        system, collection, dtd = populated(tmp_path)
        wal_path = os.path.join(str(tmp_path / "sys"), "db", "wal.log")
        assert os.path.getsize(wal_path) > 0
        system.checkpoint()
        assert os.path.getsize(wal_path) == 0
        system.close()

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

    def test_memory_system_storage_disabled(self):
        system = DocumentSystem()
        assert system.health()["storage"] == {"enabled": False}
        system.close()
