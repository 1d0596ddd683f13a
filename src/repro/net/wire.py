"""The wire protocol: length-prefixed JSON frames and typed error envelopes.

The out-of-process document service speaks the simplest protocol that
survives production traffic: every message is one **frame** —

.. code-block:: text

    +----------------+---------------------------+
    | length N       | payload                   |
    | 4 bytes, !I    | N bytes of UTF-8 JSON     |
    +----------------+---------------------------+

The length prefix is an unsigned 32-bit big-endian integer counting the
payload bytes only.  The payload is a single JSON object (never an array
or scalar).  Framing gives the reader exact message boundaries without
scanning for delimiters; JSON keeps the format debuggable with ``nc`` and
heterogeneous clients trivial to write (the representation lesson of
PAPERS.md applies: the frame format, not the handler code, bounds
throughput — and a binary upgrade can ride the same length prefix under a
new protocol version).

Envelopes
---------

Request::

    {"v": 1, "id": 7, "op": "query", "params": {...}}

Success response::

    {"v": 1, "id": 7, "ok": true, "result": ..., "telemetry": {...}?}

Error response::

    {"v": 1, "id": 7, "ok": false,
     "error": {"type": "UnknownCollectionError", "message": "...",
               "cause": "..."?, "retry_after_seconds": 0.05?}}

``error.type`` names a :class:`~repro.errors.ReproError` subclass; the
client re-raises the *same* exception type it would have seen in-process,
so ``except`` clauses written against the in-process API keep working over
the wire.  Unknown types degrade to :class:`~repro.errors.NetworkError`.
``retry_after_seconds`` rides on backpressure rejections
(:class:`~repro.errors.ServiceOverloadedError`) as the server's hint for
client backoff.

Size limits are enforced on **both** sides and on both the send and
receive paths: a reader never allocates more than ``max_bytes`` because of
a hostile or corrupt length prefix.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional

from repro import errors as errors_module
from repro.errors import (
    ConnectionLostError,
    FrameTooLargeError,
    NetworkError,
    ProtocolError,
    ReproError,
)
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID

#: Protocol version spoken by this build.  A request carrying a different
#: ``v`` is answered with a ProtocolError envelope (the connection stays
#: usable — version negotiation is per-request, not per-connection).
PROTOCOL_VERSION = 1

#: Default ceiling for one frame's payload (8 MiB).  Large enough for a
#: full ranking over a 100k-document collection, small enough that a
#: corrupt length prefix cannot OOM the receiver.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LENGTH = struct.Struct("!I")
LENGTH_BYTES = _LENGTH.size


# --------------------------------------------------------------------------
# Frame codec
# --------------------------------------------------------------------------

def encode_frame(payload: Dict[str, Any], max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one payload object into a length-prefixed frame."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    try:
        body = json.dumps(payload, separators=(",", ":"), allow_nan=False).encode(
            "utf-8"
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"payload is not JSON-encodable: {exc}") from exc
    if len(body) > max_bytes:
        raise FrameTooLargeError(
            f"frame payload is {len(body)} bytes; limit is {max_bytes}"
        )
    return _LENGTH.pack(len(body)) + body


def decode_payload(body: bytes) -> Dict[str, Any]:
    """Parse a frame body; malformed or non-object payloads are protocol errors."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"malformed frame payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# --------------------------------------------------------------------------
# Blocking socket I/O
# --------------------------------------------------------------------------

def send_frame(
    sock: socket.socket, payload: Dict[str, Any], max_bytes: int = MAX_FRAME_BYTES
) -> None:
    """Encode and write one frame; transport failures raise ConnectionLostError."""
    frame = encode_frame(payload, max_bytes)
    try:
        sock.sendall(frame)
    except (OSError, ValueError) as exc:
        raise ConnectionLostError(f"send failed: {exc}") from exc


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    chunks = bytearray()
    while len(chunks) < n:
        try:
            chunk = sock.recv(n - len(chunks))
        except socket.timeout:
            raise
        except OSError as exc:
            raise ConnectionLostError(f"receive failed: {exc}") from exc
        if not chunk:
            if chunks:
                raise ConnectionLostError(
                    f"peer closed mid-frame ({len(chunks)}/{n} bytes read)"
                )
            return None
        chunks.extend(chunk)
    return bytes(chunks)


def recv_frame(
    sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[Dict[str, Any]]:
    """Read one frame; None on clean EOF before a frame starts.

    A peer that disappears mid-frame (truncated length or body) raises
    :class:`~repro.errors.ConnectionLostError`; a declared length above
    ``max_bytes`` raises :class:`~repro.errors.FrameTooLargeError` without
    reading the body.
    """
    prefix = _recv_exact(sock, LENGTH_BYTES)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > max_bytes:
        raise FrameTooLargeError(
            f"incoming frame declares {length} bytes; limit is {max_bytes}"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ConnectionLostError("peer closed between length prefix and body")
    return decode_payload(body)


# --------------------------------------------------------------------------
# Envelopes
# --------------------------------------------------------------------------

def request_envelope(
    request_id: int, op: str, params: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "op": op,
        "params": params or {},
    }


def result_envelope(
    request_id: Optional[int],
    result: Any,
    telemetry: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
        "result": result,
    }
    if telemetry is not None:
        envelope["telemetry"] = telemetry
    return envelope


def _error_registry() -> Dict[str, type]:
    """Every ReproError subclass by name, discovered from repro.errors."""
    registry: Dict[str, type] = {}
    for name in dir(errors_module):
        candidate = getattr(errors_module, name)
        if (
            isinstance(candidate, type)
            and issubclass(candidate, ReproError)
        ):
            registry[candidate.__name__] = candidate
    return registry


ERROR_TYPES = _error_registry()


def error_envelope(
    request_id: Optional[int],
    exc: BaseException,
    retry_after_seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """Wrap an exception as a typed wire error.

    Non-Repro exceptions (a server bug) cross the wire as
    :class:`~repro.errors.NetworkError` with the original type in the
    message — internals never leak as opaque 500s, but the client also
    cannot confuse a server crash with a domain error.
    """
    if isinstance(exc, ReproError):
        error: Dict[str, Any] = {
            "type": type(exc).__name__,
            "message": str(exc),
        }
    else:
        error = {
            "type": "NetworkError",
            "message": f"server error: {type(exc).__name__}: {exc}",
        }
    if exc.__cause__ is not None:
        error["cause"] = f"{type(exc.__cause__).__name__}: {exc.__cause__}"
    if retry_after_seconds is not None:
        error["retry_after_seconds"] = retry_after_seconds
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": error,
    }


def raise_from_envelope(envelope: Dict[str, Any]) -> None:
    """Re-raise the typed error carried by an ``ok: false`` envelope."""
    error = envelope.get("error") or {}
    type_name = error.get("type", "NetworkError")
    message = error.get("message", "remote error")
    cause = error.get("cause")
    if cause:
        message = f"{message} (caused by {cause})"
    exc_type = ERROR_TYPES.get(type_name, NetworkError)
    try:
        exc = exc_type(message)
    except Exception:
        # A constructor that demands extra arguments still must not mask
        # the remote failure.
        exc = NetworkError(f"{type_name}: {message}")
    retry_after = error.get("retry_after_seconds")
    if retry_after is not None:
        exc.retry_after = retry_after  # type: ignore[attr-defined]
    raise exc


def check_version(payload: Dict[str, Any]) -> None:
    """Reject a request/response from a different protocol version."""
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )


# --------------------------------------------------------------------------
# Value encoding: what may cross the wire inside results
# --------------------------------------------------------------------------

#: Tag for a database object reference inside a JSON value tree.
OBJECT_TAG = "$object"


def encode_value(value: Any) -> Any:
    """Lower an arbitrary result value into JSON-encodable form.

    Scalars pass through; tuples/lists/sets become lists; dict keys become
    strings; a ``DBObject`` becomes a tagged reference carrying its OID,
    class and JSON-safe attributes (the wire's **eager materialization** —
    a remote client cannot dereference lazily, so the element snapshot
    travels with the hit).  Values that cannot be represented degrade to
    ``repr`` strings rather than poisoning the whole response.
    """
    if isinstance(value, OID):  # before int: an OID is an int subclass
        return str(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, DBObject):
        attributes = {}
        for name, attr_value in value.database.read_attributes(value.oid).items():
            encoded = encode_value(attr_value)
            if encoded is not None:
                attributes[name] = encoded
        return {
            OBJECT_TAG: {
                "oid": str(value.oid),
                "class": value.class_name,
                "attributes": attributes,
            }
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode_value(item) for key, item in value.items()}
    return repr(value)


def decode_value(value: Any) -> Any:
    """Client-side inverse of :func:`encode_value`.

    Tagged object references come back as :class:`RemoteElement` snapshots
    (see :mod:`repro.net.client`); everything else stays plain JSON.
    """
    if isinstance(value, dict):
        if OBJECT_TAG in value and len(value) == 1:
            from repro.net.client import RemoteElement

            return RemoteElement.from_payload(value[OBJECT_TAG])
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value
