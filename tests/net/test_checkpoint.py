"""The ``checkpoint`` wire operation, end to end over a live socket."""

from __future__ import annotations

import asyncio

import pytest

import repro
from repro import DocumentSystem
from repro.errors import StoreError
from repro.net import RemoteSession
from repro.sgml.mmf import build_document, mmf_dtd


@pytest.fixture
def durable_system(tmp_path):
    system = DocumentSystem(directory=str(tmp_path / "netsys"))
    dtd = mmf_dtd()
    system.register_dtd(dtd)
    for i in range(3):
        system.add_document(
            build_document(f"Doc{i}", [f"telnet text {i}", "www access"]),
            dtd=dtd,
        )
    collection = system.session.create_collection(
        "collPara", "ACCESS p FROM p IN PARA"
    )
    system.session.index(collection)
    yield system
    system.close()


@pytest.fixture
def durable_remote(durable_system):
    server = durable_system.serve()
    session = RemoteSession(server.address, pool_size=2, request_timeout=10.0)
    yield session
    session.close()


class TestRemoteCheckpoint:
    def test_checkpoint_returns_store_stats(self, durable_remote):
        stats = durable_remote.checkpoint()
        assert stats["checkpoint_id"] >= 1
        assert stats["size_bytes"] > 0

    def test_repeat_checkpoint_is_incremental(self, durable_remote):
        durable_remote.checkpoint()
        again = durable_remote.checkpoint()
        assert again["records_appended"] == 0
        assert again["records_reused"] > 0

    def test_checkpoint_on_memory_system_maps_store_error(self, server, system):
        session = RemoteSession(server.address, pool_size=1, request_timeout=10.0)
        try:
            with pytest.raises(StoreError):
                session.checkpoint()
        finally:
            session.close()


class TestCheckpointFromAsyncio:
    def test_checkpoint_through_a_thread(self, durable_system):
        server = durable_system.serve()

        async def scenario():
            with repro.connect(server.address) as session:
                return await asyncio.to_thread(session.checkpoint)

        assert asyncio.run(scenario())["checkpoint_id"] >= 1
