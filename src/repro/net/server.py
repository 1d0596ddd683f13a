"""``DocumentServer`` — the coupling served over a socket.

The paper's architecture is inherently client/server: the OODBMS and the
IRS cooperate across process boundaries.  This module finishes the job for
the *callers* too — a threaded TCP server fronting one
:class:`repro.Session` (usually pooled), speaking the
:mod:`repro.net.wire` protocol.

Concurrency model: one accept loop plus one handler thread per
connection.  Requests on one connection run serially (a connection *is*
the client's ordering domain); throughput across clients comes from many
connections feeding the pooled session's batching windows — exactly the
fan-in the service layer was built for.  Two admission layers protect the
process:

* **connections** — beyond ``max_connections`` concurrent connections,
  the newcomer gets one :class:`~repro.errors.ServiceOverloadedError`
  envelope (with a ``retry_after_seconds`` hint) and is closed;
* **requests** — the pooled session's bounded admission queue; its
  :class:`~repro.errors.ServiceOverloadedError` crosses the wire with the
  same hint, and every other :class:`~repro.errors.ReproError` (timeouts,
  unknown collections, query syntax…) crosses as its own type.

Every successful query response carries the request's
:class:`~repro.obs.telemetry.RequestTelemetry` so remote clients keep the
cost-attribution surface in-process callers have.  The server itself is
instrumented: ``net.connections.{active,accepted,rejected}``,
``net.requests.{completed,failed}``, per-endpoint rolling latency
(``net.request.seconds.<op>``) and ``net.request`` spans — all of which
feed ``health()`` and the Prometheus exposition.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.core import updates as updates_module
from repro.errors import (
    ConnectionLostError,
    ObjectNotFoundError,
    ProtocolError,
    ReproError,
    ServiceOverloadedError,
)
from repro.memo import Memo
from repro.net import wire
from repro.net.config import ServerConfig
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID

logger = logging.getLogger(__name__)

#: Element snapshots a server's memo holds, the oldest dropped first.
SNAPSHOT_MEMO_LIMIT = 1 << 13

#: Each hit object's encoded element snapshot; None for a deleted object.
Snapshots = Dict[OID, Optional[wire.Encoded]]


class DocumentServer:
    """Serve a :class:`repro.DocumentSystem` to remote sessions.

    Parameters
    ----------
    system:
        The document system to expose.
    config:
        :class:`~repro.net.config.ServerConfig` tunables.
    session:
        The session requests execute through.  Default: the system's
        inline session; pass a pooled one (``system.open_session(workers=N)``)
        to serve concurrent traffic through batching windows.
    """

    def __init__(
        self,
        system,
        config: Optional[ServerConfig] = None,
        session=None,
    ) -> None:
        self.system = system
        self.config = config or ServerConfig()
        self.session = session if session is not None else system.session
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closed = False
        self._lock = threading.Lock()
        self._handlers: List[threading.Thread] = []
        self._active = 0
        self._address: Optional[Tuple[str, int]] = None
        self.started_at: Optional[float] = None
        #: Shared by the handler threads: a race re-encodes, never serves stale.
        self._snapshot_memo = Memo(SNAPSHOT_MEMO_LIMIT, "net.snapshots.reused",
                                   "net.snapshots.encoded", "net.snapshots.evicted")

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — read after :meth:`start`."""
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    @property
    def running(self) -> bool:
        return self._accept_thread is not None and self._accept_thread.is_alive()

    def start(self) -> "DocumentServer":
        """Bind, listen, and start the accept loop (idempotent)."""
        if self._closed:
            raise RuntimeError("server already stopped")
        if self.running:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(min(self.config.max_connections, 128))
        listener.settimeout(self.config.poll_interval)
        self._listener = listener
        self._address = listener.getsockname()
        self._stop.clear()
        self.started_at = time.time()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-net-accept", daemon=True
        )
        self._accept_thread.start()
        logger.info("document server listening on %s:%d", *self._address)
        return self

    def stop(self) -> None:
        """Stop accepting, close live connections, join handler threads."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - close is best effort
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        with self._lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.join(timeout=5.0)
        obs.metrics().gauge("net.connections.active").set(0)

    def __enter__(self) -> "DocumentServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- accept loop --------------------------------------------------------

    def _accept_loop(self) -> None:
        registry = obs.metrics()
        while not self._stop.is_set():
            try:
                conn, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by stop()
            with self._lock:
                if self._active >= self.config.max_connections:
                    overloaded = True
                else:
                    overloaded = False
                    self._active += 1
            if overloaded:
                registry.counter("net.connections.rejected").inc()
                self._reject_connection(conn)
                continue
            registry.counter("net.connections.accepted").inc()
            registry.gauge("net.connections.active").set(self._active)
            handler = threading.Thread(
                target=self._serve_connection,
                args=(conn, peer),
                name=f"repro-net-conn-{peer[1]}",
                daemon=True,
            )
            with self._lock:
                self._handlers.append(handler)
            handler.start()

    def _reject_connection(self, conn: socket.socket) -> None:
        """Connection-level backpressure: one typed rejection, then close."""
        try:
            wire.send_frame(
                conn,
                wire.error_envelope(
                    None,
                    ServiceOverloadedError(
                        f"connection limit reached "
                        f"({self.config.max_connections} concurrent); retry later"
                    ),
                    retry_after_seconds=self.config.retry_after_seconds,
                ),
                self.config.max_frame_bytes,
            )
        except ReproError:
            pass
        finally:
            _close_quietly(conn)

    # -- connection handling ------------------------------------------------

    def _serve_connection(self, conn: socket.socket, peer) -> None:
        conn.settimeout(self.config.poll_interval)
        try:
            while not self._stop.is_set():
                try:
                    request = wire.recv_frame(conn, self.config.max_frame_bytes)
                except socket.timeout:
                    continue
                except ConnectionLostError:
                    break  # peer vanished mid-frame; nothing to answer
                except ProtocolError as exc:
                    # Oversized or malformed frame: the byte stream can no
                    # longer be trusted — answer once and close.  Count it
                    # first, so a client that got the answer sees the count.
                    obs.metrics().counter("net.frames.rejected").inc()
                    self._send_error(conn, None, exc)
                    break
                if request is None:
                    break  # clean EOF between frames
                if not self._handle_request(conn, request):
                    break
        finally:
            _close_quietly(conn)
            with self._lock:
                self._active -= 1
                self._handlers = [
                    t for t in self._handlers if t is not threading.current_thread()
                ]
            obs.metrics().gauge("net.connections.active").set(self._active)

    def _handle_request(self, conn: socket.socket, request: Dict[str, Any]) -> bool:
        """Dispatch one request; returns False when the connection must close."""
        registry = obs.metrics()
        request_id = request.get("id")
        op = request.get("op")
        started = time.perf_counter()
        try:
            wire.check_version(request)
            if not isinstance(op, str) or not op:
                raise ProtocolError("request is missing its 'op' field")
            handler = self._OPS.get(op)
            if handler is None:
                raise ProtocolError(f"unknown operation {op!r}")
            params = request.get("params")
            if params is None:
                params = {}
            if not isinstance(params, dict):
                raise ProtocolError("'params' must be a JSON object")
            with obs.tracer().span("net.request", op=op):
                result, telemetry = handler(self, params)
            envelope = wire.result_envelope(request_id, result, telemetry)
            registry.counter("net.requests.completed").inc()
        except BaseException as exc:  # every failure crosses as a typed envelope
            retry_after = (
                self.config.retry_after_seconds
                if isinstance(exc, ServiceOverloadedError)
                else None
            )
            envelope = wire.error_envelope(request_id, exc, retry_after)
            registry.counter("net.requests.failed").inc()
            if not isinstance(exc, ReproError):
                logger.exception("unexpected server error handling %r", op)
        elapsed = time.perf_counter() - started
        if isinstance(op, str) and op:
            registry.rolling(f"net.request.seconds.{op}").observe(elapsed)
        try:
            wire.send_frame(conn, envelope, self.config.max_frame_bytes)
        except ReproError:
            return False  # peer gone; drop the connection
        return True

    def _send_error(
        self, conn: socket.socket, request_id: Optional[int], exc: BaseException
    ) -> None:
        try:
            wire.send_frame(
                conn,
                wire.error_envelope(request_id, exc),
                self.config.max_frame_bytes,
            )
        except ReproError:
            pass

    # -- collection addressing ---------------------------------------------

    def _collection(self, name: Any) -> DBObject:
        """Resolve a collection *name* to its COLLECTION object.

        Remote callers address collections by ``irs_name`` — object
        handles do not cross the wire; the session resolves (and caches)
        the name.
        """
        if not isinstance(name, str) or not name:
            raise ProtocolError("'collection' must be a non-empty string")
        return self.session.collection(name)

    def _object(self, oid_text: Any) -> DBObject:
        if not isinstance(oid_text, str):
            raise ProtocolError("'oid' must be an OID string")
        try:
            oid = OID.parse(oid_text)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        return self.system.db.get_object(oid)

    def _decode_bindings(
        self, bindings: Optional[Dict[str, Any]]
    ) -> Optional[Dict[str, Any]]:
        """Rehydrate tagged object references inside mixed-query bindings."""
        if bindings is None:
            return None
        if not isinstance(bindings, dict):
            raise ProtocolError("'bindings' must be a JSON object")
        decoded = {}
        for key, value in bindings.items():
            if isinstance(value, dict) and set(value) == {wire.OBJECT_TAG}:
                reference = value[wire.OBJECT_TAG]
                if "collection" in reference:
                    decoded[key] = self._collection(reference["collection"])
                else:
                    decoded[key] = self._object(reference.get("oid"))
            else:
                decoded[key] = value
        return decoded

    # -- operations ---------------------------------------------------------

    def _op_ping(self, params: Dict[str, Any]):
        import repro

        return (
            {
                "pong": True,
                "protocol": wire.PROTOCOL_VERSION,
                "server_version": repro.__version__,
            },
            None,
        )

    def _op_create_collection(self, params: Dict[str, Any]):
        name = params.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("'name' must be a non-empty string")
        options = params.get("options") or {}
        if not isinstance(options, dict):
            raise ProtocolError("'options' must be a JSON object")
        collection = self.session.create_collection(
            name, params.get("spec_query") or "", **options
        )
        return {"name": name, "oid": str(collection.oid)}, None

    def _op_index(self, params: Dict[str, Any]):
        collection = self._collection(params.get("collection"))
        options = params.get("options") or {}
        if not isinstance(options, dict):
            raise ProtocolError("'options' must be a JSON object")
        return self.session.index(collection, **options), None

    def _op_propagate(self, params: Dict[str, Any]):
        collection = self._collection(params.get("collection"))
        return self.session.propagate(collection), None

    def _op_remove(self, params: Dict[str, Any]):
        collection = self._collection(params.get("collection"))
        obj = self._object(params.get("oid"))
        self.session.remove(collection, obj)
        return None, None

    def _op_query(self, params: Dict[str, Any]):
        collection = self._collection(params.get("collection"))
        result = self.session.query(
            collection,
            params.get("irs_query") or "",
            model=params.get("model"),
            top_k=params.get("top_k"),
        )
        snapshots = self._snapshots([result]) if params.get("include_elements") else None
        packed = self._pack_result_set(result, snapshots)
        return packed, packed.pop("telemetry", None)

    def _op_query_batch(self, params: Dict[str, Any]):
        items = params.get("items")
        if not isinstance(items, list):
            raise ProtocolError("'items' must be a list")
        batch = []
        for item in items:
            if not isinstance(item, dict):
                raise ProtocolError("each batch item must be a JSON object")
            batch.append(
                (
                    self._collection(item.get("collection")),
                    item.get("irs_query") or "",
                    item.get("model"),
                    item.get("top_k"),
                )
            )
        results = self.session.query_batch(batch)
        snapshots = self._snapshots(results) if params.get("include_elements") else None
        return [self._pack_result_set(result, snapshots) for result in results], None

    def _op_find_value(self, params: Dict[str, Any]):
        collection = self._collection(params.get("collection"))
        obj = self._object(params.get("oid"))
        return (
            self.session.find_value(collection, params.get("irs_query") or "", obj),
            None,
        )

    def _op_execute(self, params: Dict[str, Any]):
        text = params.get("text")
        if not isinstance(text, str) or not text:
            raise ProtocolError("'text' must be a non-empty string")
        bindings = self._decode_bindings(params.get("bindings"))
        rows = self.session.execute(text, bindings)
        return [wire.encode_value(row) for row in rows], None

    def _op_collections(self, params: Dict[str, Any]):
        return self.session.collections(), None

    def _op_health(self, params: Dict[str, Any]):
        slo = params.get("slo_seconds", self.config.slo_seconds)
        report = self.system.health(slo_seconds=slo)
        return report, None

    def _op_pending(self, params: Dict[str, Any]):
        collection = self._collection(params.get("collection"))
        return updates_module.has_pending(collection), None

    def _op_checkpoint(self, params: Dict[str, Any]):
        return self.system.checkpoint(), None

    _OPS = {
        "ping": _op_ping,
        "create_collection": _op_create_collection,
        "index": _op_index,
        "propagate": _op_propagate,
        "remove": _op_remove,
        "query": _op_query,
        "query_batch": _op_query_batch,
        "find_value": _op_find_value,
        "execute": _op_execute,
        "collections": _op_collections,
        "health": _op_health,
        "pending": _op_pending,
        "checkpoint": _op_checkpoint,
    }

    # -- result encoding ----------------------------------------------------

    def _snapshots(self, results) -> Snapshots:
        """The snapshots of the results' hit objects.

        One is encoded once and reused while its object's write version and
        the schema generation (``read_attributes`` fills in defaults) stay
        as they were read before encoding it.
        """
        db, memo = self.system.db, self._snapshot_memo
        generation = db.schema.generation
        snapshots: Snapshots = {}
        encoded = 0
        for result in results:
            for hit in result.hits:
                oid = hit.oid
                if oid in snapshots:
                    continue
                try:
                    token = (db.write_version(oid), generation)
                    snapshot = memo.get(oid, token)
                    if snapshot is None:
                        body = wire.encode_value(db.get_object(oid))[wire.OBJECT_TAG]
                        memo.put(oid, token, snapshot := wire.Encoded(body))
                        encoded += 1
                    snapshots[oid] = snapshot
                except ObjectNotFoundError:  # deleted since it was scored
                    snapshots[oid] = None
        reused = sum(snapshot is not None for snapshot in snapshots.values()) - encoded
        memo.count(reused, encoded)
        return snapshots

    def _pack_result_set(self, result, snapshots: Optional[Snapshots]) -> Dict[str, Any]:
        """One ResultSet as a JSON object (hits ranked, floats exact).

        JSON floats round-trip IEEE doubles exactly (``repr`` encoding),
        so remote scores are bit-identical to in-process scores — the
        property the remote equivalence suite asserts.
        """
        if snapshots is None:
            hits = [[str(hit.oid), hit.score] for hit in result.hits]
        else:
            hits = [[str(hit.oid), hit.score, snapshots[hit.oid]] for hit in result.hits]
        packed: Dict[str, Any] = {
            "hits": hits,
            "collection": result.collection,
            "query": result.query,
            "model": result.model,
            "epoch": result.epoch,
        }
        if result.telemetry is not None:
            packed["telemetry"] = result.telemetry.as_dict()
        return packed

    # -- introspection ------------------------------------------------------

    def network_section(self) -> Dict[str, Any]:
        """The server's slice of ``health()["network"]``."""
        with self._lock:
            active = self._active
        return {
            "address": list(self._address) if self._address else None,
            "active_connections": active,
            "max_connections": self.config.max_connections,
            "running": self.running,
        }

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        where = f"{self._address[0]}:{self._address[1]}" if self._address else "unbound"
        return f"<DocumentServer {where} {state}>"


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:  # pragma: no cover - close is best effort
        pass
