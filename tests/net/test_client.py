"""RemoteSession: pooling, reconnect, deadlines, typed errors."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import (
    ConnectionLostError,
    ProtocolError,
    IRSQuerySyntaxError,
    RequestTimeoutError,
    ServiceClosedError,
    UnknownCollectionError,
)
from repro.net import ClientConfig, DocumentServer, RemoteSession, ServerConfig


class TestAddressing:
    def test_accepts_tuple_string_and_url(self, server):
        host, port = server.address
        for target in [(host, port), f"{host}:{port}", f"tcp://{host}:{port}"]:
            with RemoteSession(target) as session:
                assert session.ping()["pong"] is True

    def test_rejects_nonsense_address(self):
        with pytest.raises(ValueError, match="not a server address"):
            RemoteSession("definitely not an address")

    def test_config_and_options_are_mutually_exclusive(self, server):
        with pytest.raises(ValueError, match="config= or keyword options"):
            RemoteSession(server.address, config=ClientConfig(), pool_size=2)


class TestPooling:
    def test_sequential_requests_reuse_one_connection(self, remote):
        for _ in range(5):
            remote.ping()
        assert remote.pool_stats == {"total": 1, "idle": 1}

    def test_pool_grows_only_under_concurrency(self, remote):
        barrier = threading.Barrier(3)
        results = []

        def worker():
            barrier.wait()
            results.append(remote.ping()["pong"])

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [True, True, True]
        stats = remote.pool_stats
        assert 1 <= stats["total"] <= 3
        assert stats["idle"] == stats["total"]

    def test_pool_size_caps_connections(self, server):
        with RemoteSession(server.address, pool_size=2) as session:
            barrier = threading.Barrier(6)
            done = []

            def worker():
                barrier.wait()
                done.append(session.ping()["pong"])

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(done) == 6
            assert session.pool_stats["total"] <= 2

    def test_closed_session_refuses_requests(self, remote):
        remote.close()
        with pytest.raises(ServiceClosedError):
            remote.ping()
        remote.close()  # idempotent


class TestReconnect:
    def test_client_survives_server_restart_on_same_port(self, system, collection):
        server = DocumentServer(system).start()
        host, port = server.address
        session = RemoteSession(
            (host, port),
            connect_attempts=8,
            backoff_base=0.02,
            backoff_cap=0.2,
        )
        try:
            assert len(session.query("collPara", "telnet")) > 0
            server.stop()
            # The pooled connection is now dead: the next request fails...
            with pytest.raises(ConnectionLostError):
                session.query("collPara", "telnet")
            # ...and once a server is back on the same port, dialing with
            # backoff inside acquire() finds it without any client restart.
            restarted = DocumentServer(
                system, config=ServerConfig(host=host, port=port)
            ).start()
            try:
                assert len(session.query("collPara", "telnet")) > 0
            finally:
                restarted.stop()
        finally:
            session.close()

    def test_connect_failure_exhausts_attempts_with_backoff(self):
        session = RemoteSession(
            ("127.0.0.1", 1),  # reserved port: connection refused
            connect_attempts=3,
            backoff_base=0.01,
            backoff_cap=0.02,
        )
        try:
            started = time.perf_counter()
            with pytest.raises(ConnectionLostError, match="after 3 attempts"):
                session.ping()
            elapsed = time.perf_counter() - started
            assert elapsed >= 0.01  # at least one backoff sleep happened
        finally:
            session.close()


class TestDeadlines:
    def test_slow_server_surfaces_request_timeout(self, server, collection, monkeypatch):
        original = server.session.query

        def slow_query(*args, **kwargs):
            time.sleep(0.6)
            return original(*args, **kwargs)

        monkeypatch.setattr(server.session, "query", slow_query)
        with RemoteSession(server.address, pool_size=1) as session:
            with pytest.raises(RequestTimeoutError, match="did not complete"):
                session.query("collPara", "telnet", timeout=0.1)
            # The timed-out socket was discarded, not pooled: the late
            # response cannot misdeliver into this fresh request.
            monkeypatch.setattr(server.session, "query", original)
            assert session.pool_stats["total"] == 0
            result = session.query("collPara", "telnet", timeout=5.0)
            assert len(result) > 0

    def test_per_request_timeout_overrides_config(
        self, server, collection, monkeypatch
    ):
        original = server.session.query

        def slow_query(*args, **kwargs):
            time.sleep(0.3)
            return original(*args, **kwargs)

        monkeypatch.setattr(server.session, "query", slow_query)
        # The config default (0.05s) would expire mid-request; the
        # generous per-request deadline wins and the call succeeds.
        with RemoteSession(server.address, request_timeout=0.05) as session:
            result = session.query("collPara", "telnet", timeout=10.0)
            assert len(result) > 0
            with pytest.raises(RequestTimeoutError):
                session.query("collPara", "telnet")  # default applies again


class TestTypedErrors:
    def test_unknown_collection_raises_same_type_as_local(self, remote):
        with pytest.raises(UnknownCollectionError, match="no collection named"):
            remote.query("ghost", "telnet")

    def test_query_syntax_error_crosses_typed(self, remote, collection):
        with pytest.raises(IRSQuerySyntaxError, match="unterminated"):
            remote.query("collPara", "#and(")

    def test_protocol_error_for_bad_collection_reference(self, remote):
        with pytest.raises(ProtocolError, match="cannot address collection"):
            remote.query(3.14, "telnet")


class TestContract:
    def test_create_index_query_collections(self, remote, system):
        collection = remote.create_collection(
            "remoteColl", "ACCESS p FROM p IN PARA"
        )
        assert collection.name == "remoteColl"
        assert collection.get("irs_name") == "remoteColl"
        assert remote.index(collection) is True
        assert "remoteColl" in remote.collections()
        result = remote.query(collection, "telnet")
        assert len(result) > 0
        # and by plain name, like the local Session accepts
        assert remote.query("remoteColl", "telnet") == result

    def test_collection_handle_is_server_checked(self, remote, collection):
        handle = remote.collection("collPara")
        assert handle.name == "collPara"
        with pytest.raises(UnknownCollectionError):
            remote.collection("ghost")

    def test_remove_and_propagate(self, remote, system, collection):
        before = remote.query("collPara", "telnet")
        victim = before[0].oid
        remote.remove("collPara", victim)
        assert remote.propagate("collPara") >= 1
        after = remote.query("collPara", "telnet")
        assert victim not in [hit.oid for hit in after]

    def test_find_value_matches_local(self, remote, system, collection):
        local_result = system.session.query(collection, "telnet")
        hit = local_result[0]
        remote_value = remote.find_value("collPara", "telnet", hit.oid)
        assert remote_value == system.session.find_value(
            collection, "telnet", hit.element
        )

    def test_execute_returns_remote_element_rows(self, remote, system, collection):
        rows = remote.execute(
            "ACCESS p FROM p IN PARA WHERE p -> getIRSValue(coll, 'telnet') > 0",
            {"coll": remote.collection("collPara")},
        )
        assert rows
        local_rows = system.session.execute(
            "ACCESS p FROM p IN PARA WHERE p -> getIRSValue(coll, 'telnet') > 0",
            {"coll": collection},
        )
        assert [row[0].oid for row in rows] == [row[0].oid for row in local_rows]
        element = rows[0][0]
        assert element.isa("PARA")
        assert "telnet" in element.get("content", "").lower()

    def test_materialize_false_ships_bare_hits(self, server, collection):
        with RemoteSession(server.address, materialize=False) as session:
            result = session.query("collPara", "telnet")
            assert len(result) > 0
            assert all(hit.element is None for hit in result)

    def test_pooled_property_and_repr(self, remote):
        assert remote.pooled is True
        assert "RemoteSession" in repr(remote)
