"""Tunables of the network layer: one dataclass per side of the socket.

Like :class:`repro.service.config.ServiceConfig`, both are frozen so a
server or client can be described, compared and rebuilt from plain
numbers.  Defaults are sized for hundreds of concurrent clients against
one in-process service on commodity hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.wire import MAX_FRAME_BYTES


@dataclass(frozen=True)
class ServerConfig:
    """Configuration of a :class:`~repro.net.server.DocumentServer`.

    ``host`` / ``port``
        Listen address.  Port 0 (the default) lets the OS pick a free
        port; read it back from ``server.address`` — tests and embedded
        deployments never race for a fixed port.
    ``max_connections``
        Concurrent-connection admission limit.  Connection number
        ``max_connections + 1`` is accepted, answered with one
        :class:`~repro.errors.ServiceOverloadedError` envelope (carrying
        ``retry_after_seconds``) and closed — connection-level
        backpressure, mirroring the request-level admission queue.
    ``max_frame_bytes``
        Frame size ceiling, both directions.
    ``retry_after_seconds``
        The backoff hint attached to overload rejections (both
        connection-level and queue-level).
    ``poll_interval``
        Seconds a connection handler blocks in ``recv`` before rechecking
        the shutdown flag; bounds how long ``stop()`` can take, not
        request latency.
    ``slo_seconds``
        Latency objective forwarded to ``health()`` when served over the
        wire (None: the health module's default).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_connections: int = 128
    max_frame_bytes: int = MAX_FRAME_BYTES
    retry_after_seconds: float = 0.05
    poll_interval: float = 0.2
    slo_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if self.max_frame_bytes < 64:
            raise ValueError("max_frame_bytes must be >= 64")
        if self.retry_after_seconds < 0:
            raise ValueError("retry_after_seconds must be >= 0")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


@dataclass(frozen=True)
class ClientConfig:
    """Configuration of a :class:`~repro.net.client.RemoteSession`.

    ``pool_size``
        Maximum pooled connections.  One request borrows one connection
        for its full round trip; ``pool_size`` therefore caps this
        session's in-flight concurrency (further callers block on the
        pool, not on the server).
    ``connect_timeout``
        Seconds one TCP connect attempt may take.
    ``connect_attempts`` / ``backoff_base`` / ``backoff_cap``
        Reconnect policy: up to ``connect_attempts`` tries with jittered
        exponential backoff (``min(cap, base * 2**(attempt-1))``, halved
        to doubled by jitter) before
        :class:`~repro.errors.ConnectionLostError` propagates.
    ``request_timeout``
        Default per-request deadline in seconds (None: wait forever).
        Each call can override it with ``timeout=``.  On expiry the
        connection is discarded (the response may still be in flight —
        reusing the socket would misdeliver it) and
        :class:`~repro.errors.RequestTimeoutError` is raised.
    ``max_frame_bytes``
        Frame size ceiling, both directions.
    ``materialize``
        When True (default), query hits carry eagerly materialized
        element snapshots — the wire's stand-in for the in-process lazy
        ``ScoredHit.element``.  False ships bare ``(oid, score)`` pairs
        (a top-10 response a quarter to a third the size, for rank-only
        workloads).
    ``retry_seed``
        Seed of the backoff jitter RNG (tests pin it).
    """

    pool_size: int = 4
    connect_timeout: float = 5.0
    connect_attempts: int = 5
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    request_timeout: Optional[float] = 30.0
    max_frame_bytes: int = MAX_FRAME_BYTES
    materialize: bool = True
    retry_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if self.connect_attempts < 1:
            raise ValueError("connect_attempts must be >= 1")
        if self.connect_timeout <= 0:
            raise ValueError("connect_timeout must be positive")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff values must be >= 0")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive or None")
        if self.max_frame_bytes < 64:
            raise ValueError("max_frame_bytes must be >= 64")
