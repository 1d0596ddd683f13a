"""Element snapshots over the wire: encoded once per object version, spliced
into the frame, built into a ``RemoteElement`` on first access.

The server keeps each hit's snapshot as JSON text while the object's write
version and the schema generation are unchanged; these tests write the
object, change its class and delete it between queries and check that the
next answer shows it.  The splice is checked byte for byte against
``json.dumps`` of the plain payload.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ObjectNotFoundError, ProtocolError
from repro.net import wire
from repro.net.client import RemoteElement
from repro.oodb.objects import DBObject


def elements_by_oid(result):
    return {hit.oid: hit.element for hit in result}


def raw_query(sock, include_elements):
    wire.send_frame(
        sock,
        wire.request_envelope(
            1,
            "query",
            {"collection": "collPara", "irs_query": "telnet", "include_elements": include_elements},
        ),
    )
    response = wire.recv_frame(sock)
    assert response["ok"], response
    return response["result"]["hits"]


class TestMemoInvalidation:
    def test_update_content_reaches_the_next_answer(self, system, collection, remote):
        first = remote.query("collPara", "telnet")
        target = first[0].oid
        system.loader.update_content(system.db.get_object(target), "telnet rewritten here")
        second = remote.query("collPara", "telnet")
        assert elements_by_oid(second)[target].get("content") == "telnet rewritten here"

    def test_added_attribute_default_reaches_the_next_answer(
        self, system, collection, remote
    ):
        first = remote.query("collPara", "telnet")
        assert all(hit.element.get("lang") is None for hit in first)
        system.db.add_class_attribute("PARA", "lang", "STRING", "en")
        second = remote.query("collPara", "telnet")
        assert [hit.oid for hit in second] == [hit.oid for hit in first]
        assert all(hit.element.get("lang") == "en" for hit in second)

    def test_deleted_hit_object_gives_no_element(self, system, collection, remote):
        first = remote.query("collPara", "telnet")
        victim = first[0].oid
        system.db.delete_object(victim)  # behind the collection's back
        second = remote.query("collPara", "telnet")
        elements = elements_by_oid(second)
        assert victim in elements and elements[victim] is None
        assert all(e is not None for oid, e in elements.items() if oid != victim)

    def test_object_vanishing_while_encoded_spares_the_other_hits(
        self, system, collection, remote, monkeypatch
    ):
        local = system.session.query(collection, "telnet")
        encode_value = wire.encode_value
        vanished = []

        def vanish_once(value):
            if isinstance(value, DBObject) and not vanished:
                vanished.append(value.oid)
                raise ObjectNotFoundError(f"no object with {value.oid}")
            return encode_value(value)

        monkeypatch.setattr(wire, "encode_value", vanish_once)
        result = remote.query("collPara", "telnet")
        assert len(vanished) == 1
        assert [(h.oid, h.score) for h in result] == [(h.oid, h.score) for h in local]
        for hit, local_hit in zip(result, local):
            if hit.oid == vanished[0]:
                assert hit.element is None
            else:
                assert hit.element.get("content") == local_hit.element.get("content")
        # Nothing was kept for the vanished one: the next answer encodes it.
        again = elements_by_oid(remote.query("collPara", "telnet"))
        assert again[vanished[0]] is not None


class TestCounters:
    def test_each_snapshot_is_encoded_once_then_reused(self, collection, remote):
        with obs.instrumentation() as (_tracer, metrics):
            hits = len(remote.query("collPara", "telnet"))
            counters = metrics.snapshot()["counters"]
            assert counters["net.snapshots.encoded"] == hits
            assert counters.get("net.snapshots.reused", 0) == 0
            remote.query("collPara", "telnet")
            counters = metrics.snapshot()["counters"]
            assert counters["net.snapshots.encoded"] == hits
            assert counters["net.snapshots.reused"] == hits

    def test_a_batch_encodes_a_shared_hit_once(self, collection, remote):
        with obs.instrumentation() as (_tracer, metrics):
            results = remote.query_batch(
                [("collPara", "telnet"), ("collPara", "#or(telnet remote)")]
            )
            distinct = {hit.oid for result in results for hit in result}
            assert sum(len(result) for result in results) > len(distinct)
            counters = metrics.snapshot()["counters"]
            assert counters["net.snapshots.encoded"] == len(distinct)

    def test_counters_move_once_per_response(self, collection, remote, monkeypatch):
        with obs.instrumentation() as (_tracer, metrics):
            calls = []
            counter = metrics.counter

            def counting(name):
                if name.startswith("net.snapshots."):
                    calls.append(name)
                return counter(name)

            monkeypatch.setattr(metrics, "counter", counting)
            remote.query("collPara", "telnet")
            assert sorted(calls) == ["net.snapshots.encoded", "net.snapshots.reused"]

    def test_bare_hits_count_nothing(self, server, collection, raw_socket):
        with obs.instrumentation() as (_tracer, metrics):
            hits = raw_query(raw_socket, include_elements=False)
            assert hits and all(len(hit) == 2 for hit in hits)
            assert all(isinstance(hit[0], str) for hit in hits)
            counters = metrics.snapshot()["counters"]
            assert "net.snapshots.encoded" not in counters


class TestClientElements:
    def test_lazy_element_equals_the_eagerly_decoded_one(
        self, server, collection, remote, raw_socket
    ):
        eager = [
            wire.decode_value({wire.OBJECT_TAG: hit[2]})
            for hit in raw_query(raw_socket, include_elements=True)
        ]
        result = remote.query("collPara", "telnet")
        assert len(result) == len(eager)
        for hit, element in zip(result, eager):
            assert isinstance(element, RemoteElement)
            lazy = hit.element
            assert lazy is hit.element  # built once
            assert (lazy.oid, lazy.class_name, lazy.attributes) == (
                element.oid,
                element.class_name,
                element.attributes,
            )


def _splice_some(value, data):
    """Wrap random subtrees of ``value`` as pre-encoded fragments."""
    if data.draw(st.booleans()):
        return wire.Encoded(value)
    if isinstance(value, list):
        return [_splice_some(item, data) for item in value]
    if isinstance(value, dict):
        return {key: _splice_some(item, data) for key, item in value.items()}
    return value


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20)
    | st.sampled_from(["é€𝄞", "\x00", wire._SLOT, "\"" + wire._SLOT]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


class TestSplice:
    @settings(max_examples=200, deadline=None)
    @given(payload=st.dictionaries(st.text(max_size=8), json_values, max_size=5), data=st.data())
    def test_spliced_frame_equals_the_plain_one(self, payload, data):
        spliced = {key: _splice_some(value, data) for key, value in payload.items()}
        body = json.dumps(payload, separators=(",", ":"), allow_nan=False).encode("utf-8")
        assert wire.encode_frame(spliced) == wire.encode_frame(payload)
        assert wire.encode_frame(payload)[wire.LENGTH_BYTES:] == body

    def test_unencodable_fragment_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            wire.Encoded(float("nan"))
