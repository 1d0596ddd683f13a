"""Snapshot of the supported public surface.

If one of these assertions fails, the public API changed: that is either a
deliberate, documented decision (update the snapshot AND ``docs/api.md``),
or a regression this test just caught.

Since PR 9 the surface is the *transport-agnostic Session contract*: the
local :class:`repro.Session` and the network :class:`repro.RemoteSession`
expose the same methods with the same parameters — application code chooses a transport with
:func:`repro.connect`, nothing else changes.
"""

from __future__ import annotations

import inspect

import pytest

import repro
from repro.net.client import RemoteSession
from repro.service.session import Session

EXPECTED_ALL = [
    "DocumentServer",
    "DocumentSystem",
    "RemoteSession",
    "ReproError",
    "ResultSet",
    "ScoredHit",
    "ServiceConfig",
    "Session",
    "__version__",
    "connect",
]

#: The transport-agnostic contract: identical on every session flavour.
SESSION_CONTRACT = {
    "create_collection": "(self, name, spec_query='', **options)",
    "collection": "(self, name)",
    "collections": "(self)",
    "index": "(self, collection_obj, **options)",
    "propagate": "(self, collection_obj)",
    "remove": "(self, collection_obj, obj)",
    "query": "(self, collection_obj, irs_query, model=None, timeout=<unset>, top_k=None)",
    "query_batch": "(self, items, timeout=<unset>)",
    "find_value": "(self, collection_obj, irs_query, obj)",
    "execute": "(self, text, bindings=None, timeout=<unset>)",
    "ping": "(self)",
    "health": "(self, slo_seconds=None)",
    "checkpoint": "(self)",
    "close": "(self)",
}

#: Extras beyond the contract, per flavour.
SESSION_EXTRAS = {"explain"}  # trace objects do not cross the wire
REMOTE_EXTRAS = {"pool_stats"}

SESSION_SIGNATURES = dict(
    SESSION_CONTRACT,
    __init__="(self, source, workers=0, config=None)",
    explain="(self, text, bindings=None)",
)

RESULT_SET_METHODS = {"from_values", "top", "oids", "scores", "to_dict"}


def _signature(fn) -> str:
    parts = []
    for name, parameter in inspect.signature(fn).parameters.items():
        if parameter.default is inspect.Parameter.empty:
            parts.append(name if parameter.kind != inspect.Parameter.VAR_KEYWORD else f"**{name}")
        elif type(parameter.default).__name__ == "object":
            parts.append(f"{name}=<unset>")
        else:
            parts.append(f"{name}={parameter.default!r}")
    return f"({', '.join(parts)})"


def _public_methods(cls) -> set:
    return {
        name
        for name, member in vars(cls).items()
        if not name.startswith("_") and (callable(member) or isinstance(member, property))
    }


class TestPublicSurface:
    def test_repro_all_snapshot(self):
        assert sorted(repro.__all__) == sorted(EXPECTED_ALL)
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name!r}"

    def test_session_is_the_exported_class(self):
        assert repro.Session is Session
        assert repro.RemoteSession is RemoteSession

    def test_session_method_signatures(self):
        for method, expected in SESSION_SIGNATURES.items():
            actual = _signature(getattr(Session, method))
            assert actual == expected, (
                f"Session.{method} signature drifted: {actual} != {expected}"
            )

    def test_session_has_no_unexpected_public_methods(self):
        public = {
            name
            for name, member in vars(Session).items()
            if not name.startswith("_") and callable(member)
        }
        assert public == (set(SESSION_CONTRACT) | SESSION_EXTRAS)

    def test_result_set_surface(self):
        from repro import ResultSet, ScoredHit

        assert RESULT_SET_METHODS <= {
            name for name in vars(ResultSet) if not name.startswith("_")
        }
        hit = ScoredHit.__new__(ScoredHit)
        assert hasattr(type(hit), "element")
        assert set(ScoredHit.__slots__) >= {"oid", "score"}

    def test_version(self):
        assert repro.__version__ == "1.2.0"


class TestSessionContract:
    """Every transport exposes the same contract with the same parameters."""

    @pytest.mark.parametrize("method, expected", sorted(SESSION_CONTRACT.items()))
    def test_remote_session_matches_contract(self, method, expected):
        actual = _signature(getattr(RemoteSession, method))
        assert actual == expected, (
            f"RemoteSession.{method} drifted from the contract: "
            f"{actual} != {expected}"
        )

    def test_remote_session_surface(self):
        assert _public_methods(RemoteSession) == (
            set(SESSION_CONTRACT) | REMOTE_EXTRAS | {"pooled"}
        )
        assert isinstance(vars(RemoteSession)["pooled"], property)
        assert isinstance(vars(RemoteSession)["pool_stats"], property)

    def test_remote_session_is_a_context_manager(self):
        assert hasattr(RemoteSession, "__enter__")
        assert hasattr(RemoteSession, "__exit__")


class TestConnect:
    """``repro.connect`` is the transport-agnostic front door."""

    def test_connect_signature(self):
        assert _signature(repro.connect) == (
            "(target, workers=0, config=None, **options)"
        )

    def test_connect_local_returns_system_session(self):
        with repro.DocumentSystem() as system:
            session = repro.connect(system)
            assert session is system.session

    def test_connect_pooled_opens_worker_session(self):
        with repro.DocumentSystem() as system:
            session = repro.connect(system, workers=2)
            assert session is not system.session
            assert session.pooled

    def test_connect_rejects_workers_for_remote_target(self):
        with pytest.raises(ValueError, match="pool_size"):
            repro.connect("tcp://127.0.0.1:1", workers=4)
