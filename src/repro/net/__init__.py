"""The out-of-process document service: wire protocol, server, clients.

``repro.net`` takes the coupling out of the single python heap:

* :mod:`repro.net.wire` — the versioned, length-prefixed JSON wire
  protocol with typed error envelopes;
* :class:`DocumentServer` — a threaded socket server fronting one
  (usually pooled) :class:`repro.Session`;
* :class:`RemoteSession` — the blocking client: connection pool,
  reconnect with backoff, per-request deadlines;
* :func:`connect` — the transport-agnostic front door (also exported as
  ``repro.connect``).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Union

from repro.net.client import (
    ConnectionPool,
    RemoteCollection,
    RemoteElement,
    RemoteHit,
    RemoteSession,
)
from repro.net.config import ClientConfig, ServerConfig
from repro.net.server import DocumentServer
from repro.net.wire import MAX_FRAME_BYTES, PROTOCOL_VERSION

__all__ = [
    "ClientConfig",
    "ConnectionPool",
    "DocumentServer",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "RemoteCollection",
    "RemoteElement",
    "RemoteHit",
    "RemoteSession",
    "ServerConfig",
    "connect",
    "parse_address",
]


def parse_address(target: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """Normalize ``"tcp://host:port"`` / ``"host:port"`` / ``(host, port)``."""
    if isinstance(target, tuple) and len(target) == 2:
        return (str(target[0]), int(target[1]))
    if isinstance(target, str):
        text = target
        if text.startswith("tcp://"):
            text = text[len("tcp://") :]
        host, separator, port = text.rpartition(":")
        if separator and host and port.isdigit():
            return (host, int(port))
    raise ValueError(
        f"not a server address: {target!r} "
        "(expected 'tcp://host:port', 'host:port', or a (host, port) tuple)"
    )


def connect(
    target: Any,
    *,
    workers: int = 0,
    config: Any = None,
    **options: Any,
) -> Any:
    """Open a session — local, pooled, or remote — behind one contract.

    The returned object speaks the Session contract (``query`` /
    ``query_batch`` / ``index`` / ``propagate`` / ``remove`` /
    ``find_value`` / ``execute`` / ``health`` / ``ping`` / ``close``)
    with identical :class:`~repro.service.results.ResultSet` semantics
    regardless of transport; only the element representation differs
    (live handles in-process, materialized snapshots over the wire).

    ``target`` selects the transport:

    =====================================  =================================
    target                                  returns
    =====================================  =================================
    a :class:`repro.DocumentSystem`         local session — inline with
                                            ``workers=0`` (default), pooled
                                            with ``workers>=1`` (closed with
                                            the system)
    a :class:`~repro.oodb.database.Database` local session on that database
    ``"tcp://host:port"`` / ``(host, port)`` :class:`RemoteSession`
    a running :class:`DocumentServer`       :class:`RemoteSession` to its
                                            address (loopback convenience)
    =====================================  =================================

    Remote keyword options (``pool_size=``, ``request_timeout=``,
    ``materialize=``, …) configure the :class:`ClientConfig`; local ones
    pass through to the session constructor.
    """
    from repro.core.system import DocumentSystem
    from repro.oodb.database import Database
    from repro.service.session import Session

    if isinstance(target, DocumentServer):
        target = target.address
    if isinstance(target, DocumentSystem):
        if workers or config is not None:
            session: Any = target.open_session(
                workers=workers, config=config, **options
            )
        else:
            session = target.session
    elif isinstance(target, Database):
        session = Session(target, workers=workers, config=config, **options)
    else:
        address = parse_address(target)
        if workers:
            raise ValueError(
                "workers= configures local pools; remote concurrency is "
                "the server's — size the client with pool_size= instead"
            )
        session = RemoteSession(address, config=config, **options)
    return session
