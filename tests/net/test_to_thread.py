"""Sessions from ``asyncio``: await each call in a thread.

Sessions are synchronous; from a coroutine the documented way to call one
is ``await asyncio.to_thread(session.method, ...)`` (docs/api.md).  Both
transports hold to it: gathered calls answer like the serial ones, typed
errors reach the awaiting coroutine, and a failed call leaves the session
serviceable.
"""

from __future__ import annotations

import asyncio

import pytest

import repro
from repro.errors import UnknownCollectionError

QUERIES = ["telnet", "www", "nii", "#and(www nii)", "#or(telnet gopher)"]


def gathered(session, queries=QUERIES):
    """``queries`` awaited together, each call in its own thread."""

    async def scenario():
        return await asyncio.gather(
            *(asyncio.to_thread(session.query, "collPara", query) for query in queries)
        )

    return asyncio.run(scenario())


class TestRemote:
    def test_full_contract_roundtrip(self, remote, collection):
        async def scenario():
            pong = await asyncio.to_thread(remote.ping)
            coll = await asyncio.to_thread(remote.collection, "collPara")
            result = await asyncio.to_thread(remote.query, coll, "telnet")
            names = await asyncio.to_thread(remote.collections)
            report = await asyncio.to_thread(remote.health)
            return pong, result, names, report

        pong, result, names, report = asyncio.run(scenario())
        assert pong["pong"] is True
        assert len(result) > 0 and result[0].score > 0
        assert "collPara" in names
        assert report["status"] in {"ok", "degraded", "overloaded"}

    def test_gathered_queries_match_serial_ones(self, remote, collection):
        serial = [remote.query("collPara", query) for query in QUERIES]
        results = gathered(remote)
        assert [result.query for result in results] == QUERIES
        assert results == serial

    def test_typed_errors_propagate_to_the_awaiter(self, remote):
        async def scenario():
            with pytest.raises(UnknownCollectionError):
                await asyncio.to_thread(remote.query, "ghost", "telnet")

        asyncio.run(scenario())

    def test_failed_call_leaves_the_pool_serviceable(self, remote, collection):
        async def scenario():
            with pytest.raises(UnknownCollectionError):
                await asyncio.to_thread(remote.query, "ghost", "telnet")
            return await asyncio.to_thread(remote.query, "collPara", "telnet")

        assert len(asyncio.run(scenario())) > 0


class TestLocal:
    def test_results_hold_live_elements(self, system, collection):
        session = repro.connect(system)
        result = asyncio.run(asyncio.to_thread(session.query, "collPara", "telnet"))
        assert len(result) > 0
        # Local transport: elements are live DBObjects, not snapshots.
        assert result[0].element.class_name == "PARA"

    def test_create_and_index_through_threads(self, system):
        session = system.session

        async def scenario():
            coll = await asyncio.to_thread(
                session.create_collection, "asyncColl", "ACCESS p FROM p IN PARA"
            )
            await asyncio.to_thread(session.index, coll)
            return await asyncio.to_thread(session.collections)

        assert "asyncColl" in asyncio.run(scenario())

    def test_pooled_session_answers_gathered_threads_like_serial_calls(
        self, system, collection
    ):
        serial = [system.session.query("collPara", query) for query in QUERIES]
        pooled = repro.connect(system, workers=2)
        try:
            assert gathered(pooled) == serial
        finally:
            pooled.close()
