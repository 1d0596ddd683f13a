"""The frame codec and envelope layer, over a local socket pair.

The hypothesis round-trip is the load-bearing test: any JSON-expressible
payload survives encode → arbitrary re-chunking → ``recv_frame`` unchanged.
"""

from __future__ import annotations

import contextlib
import json
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.errors as errors_module
from repro.errors import (
    ConnectionLostError,
    FrameTooLargeError,
    NetworkError,
    ProtocolError,
    ReproError,
    RequestTimeoutError,
    ServiceOverloadedError,
    UnknownCollectionError,
)
from repro.net import wire

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=20,
)
json_objects = st.dictionaries(st.text(max_size=10), json_values, max_size=6)


@contextlib.contextmanager
def connected():
    """Both ends of a socket pair (reads time out rather than hang)."""
    sender, receiver = socket.socketpair()
    receiver.settimeout(5.0)
    try:
        yield sender, receiver
    finally:
        sender.close()
        receiver.close()


def send_later(sock, chunks, pause=0.0):
    """Send ``chunks`` one by one from a thread while the test reads (a
    socket buffer holds few tiny sends); ``pause`` before each makes the
    reader see the frame arrive in pieces.  Returns the thread."""

    def run():
        for chunk in chunks:
            time.sleep(pause)
            sock.sendall(chunk)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestFrameCodec:
    @settings(max_examples=60, deadline=None)
    @given(payload=json_objects, chunk=st.integers(min_value=1, max_value=7))
    def test_roundtrip_survives_any_chunking(self, payload, chunk):
        frame = wire.encode_frame(payload)
        chunks = [frame[start : start + chunk] for start in range(0, len(frame), chunk)]
        with connected() as (sender, receiver):
            thread = send_later(sender, chunks)
            assert wire.recv_frame(receiver) == payload
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            sender.close()
            assert wire.recv_frame(receiver) is None  # nothing left behind

    def test_floats_roundtrip_bit_exact(self):
        scores = [0.1 + 0.2, 1e-308, 0.7462186513100967, 3.141592653589793]
        with connected() as (sender, receiver):
            sender.sendall(wire.encode_frame({"scores": scores}))
            payload = wire.recv_frame(receiver)
        assert payload["scores"] == scores  # == on floats is bit-comparison

    def test_multiple_frames_in_one_feed(self):
        with connected() as (sender, receiver):
            sender.sendall(wire.encode_frame({"a": 1}) + wire.encode_frame({"b": 2}))
            sender.close()
            assert wire.recv_frame(receiver) == {"a": 1}
            assert wire.recv_frame(receiver) == {"b": 2}
            assert wire.recv_frame(receiver) is None

    def test_truncated_frame_stays_pending(self):
        frame = wire.encode_frame({"key": "value"})
        with connected() as (sender, receiver):
            sender.sendall(frame[:-1])
            receiver.settimeout(0.05)
            with pytest.raises(socket.timeout):  # no frame, and no error either
                wire.recv_frame(receiver)

    def test_frame_split_across_sends_is_read_whole(self):
        frame = wire.encode_frame({"key": "value"})
        with connected() as (sender, receiver):
            # Split inside the length prefix and inside the body.
            thread = send_later(sender, [frame[:2], frame[2:-1], frame[-1:]], pause=0.01)
            assert wire.recv_frame(receiver) == {"key": "value"}
            thread.join(timeout=5.0)
            assert not thread.is_alive()

    def test_peer_closing_mid_frame_loses_the_connection(self):
        frame = wire.encode_frame({"key": "value"})
        with connected() as (sender, receiver):
            sender.sendall(frame[:-1])
            sender.close()
            with pytest.raises(ConnectionLostError):
                wire.recv_frame(receiver)

    def test_non_object_payload_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            wire.encode_frame(["not", "an", "object"])

    def test_unencodable_payload_rejected(self):
        with pytest.raises(ProtocolError):
            wire.encode_frame({"sock": object()})
        with pytest.raises(ProtocolError):
            wire.encode_frame({"bad": float("nan")})

    def test_oversized_payload_refused_by_sender(self):
        with pytest.raises(FrameTooLargeError):
            wire.encode_frame({"blob": "x" * 100}, max_bytes=50)

    def test_oversized_prefix_rejected_after_four_bytes(self):
        with connected() as (sender, receiver):
            sender.sendall(struct.pack("!I", 1 << 30))  # and no body at all
            with pytest.raises(FrameTooLargeError):
                wire.recv_frame(receiver, max_bytes=1024)

    def test_garbage_body_is_a_protocol_error(self):
        body = b"\xff\xfe not json"
        with connected() as (sender, receiver):
            sender.sendall(struct.pack("!I", len(body)) + body)
            with pytest.raises(ProtocolError):
                wire.recv_frame(receiver)

    def test_non_object_json_body_is_a_protocol_error(self):
        body = json.dumps([1, 2, 3]).encode()
        with connected() as (sender, receiver):
            sender.sendall(struct.pack("!I", len(body)) + body)
            with pytest.raises(ProtocolError):
                wire.recv_frame(receiver)


class TestEnvelopes:
    def test_request_envelope_shape(self):
        envelope = wire.request_envelope(7, "query", {"collection": "c"})
        assert envelope == {
            "v": wire.PROTOCOL_VERSION,
            "id": 7,
            "op": "query",
            "params": {"collection": "c"},
        }

    def test_result_envelope_carries_telemetry_only_when_present(self):
        assert "telemetry" not in wire.result_envelope(1, {"x": 1})
        assert wire.result_envelope(1, None, {"cost": {}})["telemetry"] == {"cost": {}}

    def test_version_mismatch_detected(self):
        with pytest.raises(ProtocolError, match="version mismatch"):
            wire.check_version({"v": 99, "id": 1})
        wire.check_version({"v": wire.PROTOCOL_VERSION})  # no raise

    @pytest.mark.parametrize(
        "exc_type",
        sorted(
            (
                candidate
                for candidate in vars(errors_module).values()
                if isinstance(candidate, type)
                and issubclass(candidate, ReproError)
            ),
            key=lambda t: t.__name__,
        ),
        ids=lambda t: t.__name__,
    )
    def test_every_repro_error_roundtrips_as_itself(self, exc_type):
        envelope = wire.error_envelope(3, exc_type("something broke"))
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == exc_type.__name__
        with pytest.raises(exc_type, match="something broke"):
            wire.raise_from_envelope(envelope)

    def test_unknown_error_type_degrades_to_network_error(self):
        envelope = wire.error_envelope(3, UnknownCollectionError("x"))
        envelope["error"]["type"] = "SomeFutureError"
        with pytest.raises(NetworkError):
            wire.raise_from_envelope(envelope)

    def test_non_repro_exception_crosses_as_network_error(self):
        envelope = wire.error_envelope(3, KeyError("oops"))
        assert envelope["error"]["type"] == "NetworkError"
        assert "KeyError" in envelope["error"]["message"]
        with pytest.raises(NetworkError, match="KeyError"):
            wire.raise_from_envelope(envelope)

    def test_retry_after_hint_survives_the_roundtrip(self):
        envelope = wire.error_envelope(
            None, ServiceOverloadedError("full"), retry_after_seconds=0.25
        )
        with pytest.raises(ServiceOverloadedError) as excinfo:
            wire.raise_from_envelope(envelope)
        assert excinfo.value.retry_after == 0.25

    def test_cause_is_preserved_in_message(self):
        try:
            try:
                raise ValueError("root cause")
            except ValueError as inner:
                raise RequestTimeoutError("timed out") from inner
        except RequestTimeoutError as exc:
            envelope = wire.error_envelope(1, exc)
        assert envelope["error"]["cause"] == "ValueError: root cause"
        with pytest.raises(RequestTimeoutError, match="root cause"):
            wire.raise_from_envelope(envelope)

    def test_network_errors_are_repro_errors(self):
        assert issubclass(NetworkError, ReproError)
        assert issubclass(ProtocolError, NetworkError)
        assert issubclass(FrameTooLargeError, ProtocolError)
        assert issubclass(ConnectionLostError, NetworkError)


class TestValueEncoding:
    def test_scalars_and_containers_pass_through(self):
        value = {"a": [1, 2.5, "x", None, True], "b": {"nested": []}}
        assert wire.decode_value(wire.encode_value(value)) == value

    def test_tuples_and_sets_become_lists(self):
        assert wire.encode_value((1, 2)) == [1, 2]
        assert wire.encode_value({3}) == [3]

    def test_dbobject_becomes_tagged_snapshot(self, system, collection):
        packed = wire.encode_value(collection)
        assert set(packed) == {wire.OBJECT_TAG}
        ref = packed[wire.OBJECT_TAG]
        assert ref["oid"] == str(collection.oid)
        assert ref["class"] == "COLLECTION"
        assert ref["attributes"]["irs_name"] == "collPara"
        element = wire.decode_value(packed)
        assert element.oid == collection.oid
        assert element.get("irs_name") == "collPara"

    def test_element_snapshot_carries_references_as_oid_strings(self, system):
        """An OID is an int, but crosses the wire as ``OID<n>``, never a number."""
        from repro.oodb.oid import OID

        root = system.roots[0]
        paragraph = next(c for c in root.send("getChildren") if c.get("tag") == "PARA")
        attributes = wire.encode_value(paragraph)[wire.OBJECT_TAG]["attributes"]
        assert attributes["parent"] == f"OID{root.oid.value}" == str(root.oid)
        assert attributes["children"] == []
        assert attributes["doc_order"] == paragraph.get("doc_order")
        assert wire.encode_value([OID(7), 7]) == ["OID7", 7]
        assert wire.encode_value({OID(7): OID(8)}) == {"OID7": "OID8"}
        snapshot = wire.decode_value(json.loads(json.dumps(wire.encode_value(paragraph))))
        assert snapshot.get("parent") == str(root.oid)

    def test_unrepresentable_value_degrades_to_repr(self):
        encoded = wire.encode_value({"x": object()})
        assert isinstance(encoded["x"], str)
        assert "object" in encoded["x"]
