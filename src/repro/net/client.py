"""``RemoteSession`` — the Session contract over a socket.

A remote session exposes the same methods, the same typed results and the
same error hierarchy as the in-process :class:`repro.Session`; the only
visible differences are inherent to distribution:

* collections are addressed by **name** (a :class:`RemoteCollection`
  handle or a plain string) — object handles do not cross the wire;
* ``ScoredHit.element`` resolves to a :class:`RemoteElement` snapshot
  shipped with the response and built on first access (the in-process
  lazy dereference degrades to eager materialization over the wire;
  ``materialize=False`` trades it away for a top-10 response a quarter
  to a third the size);
* transport failures surface as :class:`~repro.errors.ConnectionLostError`
  — a new error case in-process callers never see.

Rankings, scores and epoch tags are identical to in-process results (the
remote equivalence suite asserts bit-equality), and
``ResultSet.telemetry`` is rebuilt from the telemetry that rides on every
response.

Connections come from a bounded pool: a request borrows one connection
for its round trip, so ``pool_size`` caps in-flight concurrency per
session.  Connecting retries with jittered exponential backoff; a broken
connection is discarded, never silently retried mid-request.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    ConnectionLostError,
    ProtocolError,
    RequestTimeoutError,
    ServiceClosedError,
)
from repro.net import wire
from repro.net.config import ClientConfig
from repro.obs.telemetry import RequestTelemetry
from repro.oodb.oid import OID
from repro.service.batch import unpack
from repro.service.executor import _UNSET
from repro.service.results import ResultSet, ScoredHit


class RemoteElement:
    """An eagerly materialized snapshot of a database object.

    What a remote client gets instead of a live :class:`DBObject`: the
    OID, the class, and the JSON-safe attribute values at response time.
    Read-only — mutating a snapshot cannot mean anything useful.
    """

    __slots__ = ("oid", "class_name", "attributes")

    def __init__(self, oid: OID, class_name: str, attributes: Dict[str, Any]) -> None:
        self.oid = oid
        self.class_name = class_name
        self.attributes = attributes

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RemoteElement":
        return cls(
            OID.parse(payload["oid"]),
            payload.get("class", ""),
            payload.get("attributes") or {},
        )

    def get(self, name: str, default: Any = None) -> Any:
        """Attribute access, mirroring ``DBObject.get``."""
        return self.attributes.get(name, default)

    def isa(self, class_name: str) -> bool:
        """Exact-class check (the snapshot does not carry the ancestry)."""
        return self.class_name == class_name

    def __eq__(self, other) -> bool:
        if isinstance(other, RemoteElement):
            return self.oid == other.oid
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.oid)

    def __repr__(self) -> str:
        return f"<RemoteElement {self.class_name} {self.oid}>"


class RemoteHit(ScoredHit):
    """A ScoredHit whose element snapshot came with the response, as
    ``payload``; the :class:`RemoteElement` is built on first access."""

    __slots__ = ("_payload", "_element")

    def __init__(
        self, oid: OID, score: float, payload: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(oid, score, None)
        self._payload = payload
        self._element: Optional[RemoteElement] = None

    @property
    def element(self) -> Optional[RemoteElement]:
        if self._element is None and self._payload is not None:
            self._element = RemoteElement.from_payload(self._payload)
        return self._element


class RemoteCollection:
    """A named handle onto a server-side COLLECTION object."""

    __slots__ = ("name", "oid")

    def __init__(self, name: str, oid: Optional[OID] = None) -> None:
        self.name = name
        self.oid = oid

    def get(self, attr: str, default: Any = None) -> Any:
        """Minimal ``DBObject.get`` compatibility for workload code."""
        if attr == "irs_name":
            return self.name
        return default

    def __repr__(self) -> str:
        return f"<RemoteCollection {self.name!r}>"


# --------------------------------------------------------------------------
# Connection pool
# --------------------------------------------------------------------------

class _Connection:
    """One pooled socket plus its per-connection request-id counter."""

    __slots__ = ("sock", "ids")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.ids = itertools.count(1)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best effort
            pass


class ConnectionPool:
    """Bounded pool of connections to one server address.

    ``acquire`` hands out an idle connection, dials a new one while under
    ``pool_size``, or blocks until a borrower returns one.  Dialing
    retries with jittered exponential backoff (the server may be
    restarting); once the attempt budget is spent,
    :class:`~repro.errors.ConnectionLostError` propagates.
    """

    def __init__(self, address: Tuple[str, int], config: ClientConfig) -> None:
        self.address = address
        self.config = config
        self._idle: List[_Connection] = []
        self._total = 0
        self._closed = False
        self._condition = threading.Condition()
        self._rng = random.Random(config.retry_seed)

    def acquire(self) -> _Connection:
        with self._condition:
            while True:
                if self._closed:
                    raise ServiceClosedError("remote session already closed")
                if self._idle:
                    return self._idle.pop()
                if self._total < self.config.pool_size:
                    self._total += 1
                    break
                self._condition.wait(timeout=0.5)
        try:
            return self._connect()
        except BaseException:
            with self._condition:
                self._total -= 1
                self._condition.notify()
            raise

    def release(self, connection: _Connection) -> None:
        with self._condition:
            if self._closed:
                connection.close()
                self._total -= 1
            else:
                self._idle.append(connection)
            self._condition.notify()

    def discard(self, connection: _Connection) -> None:
        """Drop a connection whose stream can no longer be trusted."""
        connection.close()
        with self._condition:
            self._total -= 1
            self._condition.notify()

    def close(self) -> None:
        with self._condition:
            self._closed = True
            idle, self._idle = self._idle, []
            self._total -= len(idle)
            self._condition.notify_all()
        for connection in idle:
            connection.close()

    @property
    def stats(self) -> Dict[str, int]:
        with self._condition:
            return {"total": self._total, "idle": len(self._idle)}

    def _connect(self) -> _Connection:
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.config.connect_attempts + 1):
            try:
                sock = socket.create_connection(
                    self.address, timeout=self.config.connect_timeout
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return _Connection(sock)
            except OSError as exc:
                last_error = exc
                if attempt >= self.config.connect_attempts:
                    break
                backoff = min(
                    self.config.backoff_cap,
                    self.config.backoff_base * (2 ** (attempt - 1)),
                ) * (0.5 + self._rng.random())
                time.sleep(backoff)
        raise ConnectionLostError(
            f"could not connect to {self.address[0]}:{self.address[1]} "
            f"after {self.config.connect_attempts} attempts: {last_error}"
        ) from last_error


# --------------------------------------------------------------------------
# The remote session
# --------------------------------------------------------------------------

CollectionRef = Union[RemoteCollection, str]


class RemoteSession:
    """A client's handle onto a remote document system.

    Build one with :func:`repro.connect` (``repro.connect("tcp://host:port")``)
    or directly from an ``(host, port)`` address.  Thread-safe: concurrent
    callers share the connection pool.
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        config: Optional[ClientConfig] = None,
        **options: Any,
    ) -> None:
        if config is None:
            config = ClientConfig(**options)
        elif options:
            raise ValueError("pass either config= or keyword options, not both")
        if isinstance(address, str):
            from repro.net import parse_address

            address = parse_address(address)
        self.address = (address[0], int(address[1]))
        self.config = config
        self._pool = ConnectionPool(self.address, config)
        self._closed = False

    # -- introspection ------------------------------------------------------

    @property
    def pooled(self) -> bool:
        """Remote execution is always mediated by the server's session."""
        return True

    @property
    def pool_stats(self) -> Dict[str, int]:
        return self._pool.stats

    # -- plumbing -----------------------------------------------------------

    def _call(self, op: str, params: Dict[str, Any], timeout: Any = _UNSET):
        """One request/response round trip on a pooled connection."""
        if self._closed:
            raise ServiceClosedError("remote session already closed")
        effective = (
            self.config.request_timeout if timeout is _UNSET else timeout
        )
        connection = self._pool.acquire()
        try:
            connection.sock.settimeout(effective)
            request_id = next(connection.ids)
            wire.send_frame(
                connection.sock,
                wire.request_envelope(request_id, op, params),
                self.config.max_frame_bytes,
            )
            response = wire.recv_frame(connection.sock, self.config.max_frame_bytes)
        except socket.timeout:
            # The response may still arrive later; this socket would
            # misdeliver it to the next request.  Discard, then surface
            # the deadline exactly like the in-process service does.
            self._pool.discard(connection)
            raise RequestTimeoutError(
                f"remote {op} did not complete within {effective}s"
            ) from None
        except BaseException:
            self._pool.discard(connection)
            raise
        if response is None:
            self._pool.discard(connection)
            raise ConnectionLostError(f"server closed the connection during {op}")
        if response.get("ok"):
            wire.check_version(response)
            if response.get("id") != request_id:
                self._pool.discard(connection)
                raise ProtocolError(
                    f"response id {response.get('id')!r} does not match "
                    f"request id {request_id}"
                )
            self._pool.release(connection)
            return response.get("result"), response.get("telemetry")
        # Typed remote failure.  Envelopes without an id (connection-level
        # rejections) also close the server side; drop ours to match.
        if response.get("id") == request_id:
            self._pool.release(connection)
        else:
            self._pool.discard(connection)
        wire.raise_from_envelope(response)

    @staticmethod
    def _collection_name(collection_obj: CollectionRef) -> str:
        if isinstance(collection_obj, RemoteCollection):
            return collection_obj.name
        if isinstance(collection_obj, str) and collection_obj:
            return collection_obj
        name = getattr(collection_obj, "get", lambda *_: None)("irs_name")
        if isinstance(name, str) and name:
            return name
        raise ProtocolError(
            f"cannot address collection {collection_obj!r} remotely; "
            "pass a RemoteCollection or a collection name"
        )

    @staticmethod
    def _oid_text(obj: Any) -> str:
        if isinstance(obj, OID):
            return str(obj)
        if isinstance(obj, str):
            return obj
        oid = getattr(obj, "oid", None)
        if oid is not None:
            return str(oid)
        raise ProtocolError(f"cannot address object {obj!r} remotely")

    def _decode_result_set(self, packed: Dict[str, Any], telemetry) -> ResultSet:
        hits = [
            RemoteHit(OID.parse(hit[0]), hit[1], hit[2] if len(hit) > 2 else None)
            for hit in packed.get("hits", ())
        ]
        result = ResultSet(
            hits,
            collection=packed.get("collection", ""),
            query=packed.get("query", ""),
            model=packed.get("model"),
            epoch=packed.get("epoch"),
        )
        if telemetry is not None:
            result.telemetry = RequestTelemetry.from_dict(telemetry)
        return result

    # -- collection management ---------------------------------------------

    def create_collection(
        self, name: str, spec_query: str = "", **options: Any
    ) -> RemoteCollection:
        """Create a COLLECTION on the server; returns a named handle."""
        result, _ = self._call(
            "create_collection",
            {"name": name, "spec_query": spec_query, "options": options},
        )
        return RemoteCollection(result["name"], OID.parse(result["oid"]))

    def collection(self, name: str) -> RemoteCollection:
        """Handle onto an existing collection (server-checked)."""
        self._call("pending", {"collection": name})
        return RemoteCollection(name)

    def collections(self) -> List[str]:
        """Names of every collection on the server."""
        result, _ = self._call("collections", {})
        return result

    def index(self, collection_obj: CollectionRef, **options: Any) -> bool:
        """Run ``indexObjects`` on the server."""
        result, _ = self._call(
            "index",
            {
                "collection": self._collection_name(collection_obj),
                "options": options,
            },
        )
        return result

    def propagate(self, collection_obj: CollectionRef) -> int:
        """Apply pending deferred updates on the server now."""
        result, _ = self._call(
            "propagate", {"collection": self._collection_name(collection_obj)}
        )
        return result

    def remove(self, collection_obj: CollectionRef, obj: Any) -> None:
        """Remove ``obj``'s documents from the collection (``deleteObject``)."""
        self._call(
            "remove",
            {
                "collection": self._collection_name(collection_obj),
                "oid": self._oid_text(obj),
            },
        )

    # -- querying -----------------------------------------------------------

    def query(
        self,
        collection_obj: CollectionRef,
        irs_query: str,
        model: Optional[str] = None,
        timeout: Any = _UNSET,
        top_k: Optional[int] = None,
    ) -> ResultSet:
        """``getIRSResult`` over the wire: identical ranking, scores, epoch."""
        result, telemetry = self._call(
            "query",
            {
                "collection": self._collection_name(collection_obj),
                "irs_query": irs_query,
                "model": model,
                "top_k": top_k,
                "include_elements": self.config.materialize,
            },
            timeout,
        )
        return self._decode_result_set(result, telemetry)

    def query_batch(
        self, items: Sequence[Any], timeout: Any = _UNSET
    ) -> List[ResultSet]:
        """Run many IRS queries in one round trip (one server batch window)."""
        encoded = [
            {
                "collection": self._collection_name(collection_obj),
                "irs_query": irs_query,
                "model": model,
                "top_k": top_k,
            }
            for collection_obj, irs_query, model, top_k in map(unpack, items)
        ]
        result, _ = self._call(
            "query_batch",
            {"items": encoded, "include_elements": self.config.materialize},
            timeout,
        )
        return [
            self._decode_result_set(packed, packed.get("telemetry"))
            for packed in result
        ]

    def find_value(
        self, collection_obj: CollectionRef, irs_query: str, obj: Any
    ) -> float:
        """``findIRSValue`` over the wire (derivation runs server-side)."""
        result, _ = self._call(
            "find_value",
            {
                "collection": self._collection_name(collection_obj),
                "irs_query": irs_query,
                "oid": self._oid_text(obj),
            },
        )
        return result

    def execute(
        self,
        text: str,
        bindings: Optional[Dict[str, Any]] = None,
        timeout: Any = _UNSET,
    ) -> List[tuple]:
        """Run a mixed OODBMS query; objects come back as RemoteElements."""
        encoded_bindings = None
        if bindings is not None:
            encoded_bindings = {}
            for key, value in bindings.items():
                if isinstance(value, RemoteCollection):
                    # Collections resolve by name server-side; a handle from
                    # ``collection()`` may not even know its OID.
                    encoded_bindings[key] = {
                        wire.OBJECT_TAG: {"collection": value.name}
                    }
                elif isinstance(value, RemoteElement) or hasattr(value, "oid"):
                    encoded_bindings[key] = {
                        wire.OBJECT_TAG: {"oid": self._oid_text(value)}
                    }
                else:
                    encoded_bindings[key] = value
        rows, _ = self._call(
            "execute", {"text": text, "bindings": encoded_bindings}, timeout
        )
        return [tuple(wire.decode_value(row)) for row in rows]

    # -- operations ---------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        """Round trip: server liveness, version, protocol."""
        result, _ = self._call("ping", {})
        return result

    def health(self, slo_seconds: Optional[float] = None) -> Dict[str, Any]:
        """The server's ``health()`` report, including its network section."""
        params: Dict[str, Any] = {}
        if slo_seconds is not None:
            params["slo_seconds"] = slo_seconds
        result, _ = self._call("health", params)
        return result

    def checkpoint(self) -> Dict[str, Any]:
        """Checkpoint the server's durable state; returns commit stats.

        The server commits its objects and index records in one
        incremental store checkpoint; errors (e.g. no durable store behind
        the server) arrive as the mapped :class:`~repro.errors.StoreError`.
        """
        result, _ = self._call("checkpoint", {})
        return result

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pool.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"<RemoteSession {self.address[0]}:{self.address[1]} "
            f"pool={self.config.pool_size} {state}>"
        )
