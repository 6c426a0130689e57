"""The shared JSON-lines wire layer: framing, the request-size bound,
error kinds, and request handling that never drops a connection."""

import json
import socket
import threading

import pytest

from vidb.cluster import ClusterRouter
from vidb.errors import (
    ClusterError,
    ModelError,
    ProtocolError,
    ServiceError,
    StandingQueryError,
    UnknownOidError,
)
from vidb.service import wire
from vidb.service.executor import ServiceExecutor
from vidb.service.server import VideoServer
from vidb.workloads.paper import rope_database


class Raw:
    """A bare socket speaking bytes, for requests no client would send."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def reply(self):
        line = self.reader.readline()
        return json.loads(line) if line else None

    def call(self, request):
        self.send(wire.encode(request))
        return self.reply()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@pytest.fixture
def server():
    service = ServiceExecutor(rope_database(), max_workers=2)
    with service, VideoServer(service, port=0) as srv:
        srv.start_background()
        yield srv


@pytest.fixture
def router(server):
    with ClusterRouter(server.address, []) as front:
        front.start()
        yield front


@pytest.fixture(params=["server", "router"])
def endpoint(request, server):
    """The address of a server, or of a router in front of one."""
    if request.param == "server":
        return server.address
    return request.getfixturevalue("router").address


class TestFraming:
    def test_encode_decode_round_trip(self):
        frame = wire.encode({"op": "ping", "n": 1})
        assert frame == b'{"op": "ping", "n": 1}\n'
        assert wire.decode(frame) == {"op": "ping", "n": 1}

    @pytest.mark.parametrize("frame", [
        b"not json", b"[1, 2]", b"7", b'"op"', b"\xff\xfe{}",
        b"[" * 100000])
    def test_decode_rejects_non_objects(self, frame):
        with pytest.raises(ProtocolError):
            wire.decode(frame)


class TestErrorKinds:
    @pytest.mark.parametrize("error, kind", [
        (StandingQueryError("no"), "standing"),
        (ProtocolError("no"), "protocol"),
        (ClusterError("no"), "cluster"),
        (UnknownOidError("no"), "model"),
        (ValueError("no"), "protocol"),
        (TypeError("no"), "service"),
    ])
    def test_most_specific_kind(self, error, kind):
        assert wire.error_kind(error) == kind

    def test_kinds_round_trip(self):
        for kind, cls in wire.ERROR_KINDS.items():
            reply = wire.error_reply(cls("boom"))
            assert reply == {"ok": False, "error": kind, "message": "boom",
                             **({"diagnostics": []} if kind == "standing"
                                else {})}
            assert type(wire.reply_error(reply)) is cls

    def test_unknown_kind_decodes_as_service_error(self):
        error = wire.reply_error({"ok": False, "error": "martian"})
        assert type(error) is ServiceError
        assert isinstance(wire.reply_error({"error": "model"}), ModelError)

    def test_internal_error_names_its_type(self):
        reply = wire.error_reply(KeyError("x"))
        assert reply["error"] == "service"
        assert reply["message"].startswith("internal error: KeyError")


#: Wrongly typed fields that once killed the server's handler thread.
BAD_FIELDS = {
    "query-limit": {"op": "query", "query": "?- object(O).", "limit": "x"},
    "query-timeout": {"op": "query", "query": "?- object(O).",
                      "timeout": "x"},
    "trace-limit": {"op": "trace", "limit": "x"},
    "insert_entity-attributes": {"op": "insert_entity", "oid": "o500",
                                 "attributes": [1, 2]},
    "insert_interval-duration": {"op": "insert_interval", "oid": "gi500",
                                 "duration": 5},
}


class TestTypedFields:
    @pytest.mark.parametrize("case", BAD_FIELDS)
    def test_wrong_type_is_a_protocol_error(self, server, case):
        conn = Raw(server.address)
        try:
            reply = conn.call(BAD_FIELDS[case])
            assert reply is not None, "connection dropped without a reply"
            assert reply["ok"] is False
            assert reply["error"] == "protocol"
            assert conn.call({"op": "ping"}) == {"ok": True, "pong": True}
        finally:
            conn.close()

    def test_through_a_router(self, router):
        before = router.metrics.snapshot()["router.primary_errors"]
        conn = Raw(router.address)
        try:
            for request_ in BAD_FIELDS.values():
                reply = conn.call(request_)
                assert reply is not None
                assert (reply["ok"], reply["error"]) == (False, "protocol")
            assert conn.call({"op": "ping"})["pong"] is True
        finally:
            conn.close()
        assert router.metrics.snapshot()["router.primary_errors"] == before

    def test_batch_items_are_checked_before_anything_applies(self, server):
        conn = Raw(server.address)
        try:
            epoch = conn.call({"op": "info"})["epoch"]
            reply = conn.call({"op": "batch", "ops": [
                {"op": "insert_entity", "oid": "o501"},
                {"op": "insert_interval", "oid": "gi501",
                 "duration": [[0, "x"]]}]})
            assert reply["error"] == "protocol"
            assert reply["message"].startswith("batch item 1:")
            assert conn.call({"op": "info"})["epoch"] == epoch
        finally:
            conn.close()

    def test_unexpected_failure_is_a_service_reply(self, server):
        """An exception no check anticipated (here a keyword clash)
        becomes an error reply, counted, with the connection kept."""
        conn = Raw(server.address)
        try:
            reply = conn.call({"op": "insert_entity", "oid": "o502",
                               "attributes": {"oid": "clash"}})
            assert (reply["ok"], reply["error"]) == (False, "service")
            assert conn.call({"op": "ping"})["pong"] is True
        finally:
            conn.close()
        snapshot = server.service.snapshot()
        assert snapshot["requests_total{op=insert_entity,outcome=service}"] == 1


class TestBoundedFrames:
    """A request past the frame bound gets one ``protocol`` reply and
    the connection closes; other connections never notice."""

    @pytest.mark.parametrize("newline", [True, False],
                             ids=["long-line", "no-newline"])
    def test_oversized_frame(self, endpoint, newline):
        if newline:
            payload = (b'{"op": "ping", "pad": "'
                       + b"x" * wire.MAX_FRAME_BYTES + b'"}\n')
        else:
            payload = b"x" * (wire.MAX_FRAME_BYTES + 4096)
        bystander = Raw(endpoint)
        pings = []
        stop = threading.Event()

        def keep_pinging():
            while True:
                pings.append(bystander.call({"op": "ping"}))
                if stop.is_set():
                    return

        pinger = threading.Thread(target=keep_pinging)
        conn = Raw(endpoint)
        try:
            assert bystander.call({"op": "ping"})["pong"] is True
            pinger.start()
            try:
                conn.send(payload)
            except OSError:
                pass  # the peer may close before the tail is sent
            reply = conn.reply()
            assert reply["ok"] is False
            assert reply["error"] == "protocol"
            assert "exceeds" in reply["message"]
            try:
                assert conn.reader.readline() == b""
            except ConnectionResetError:
                pass  # closed with the frame's tail unread
        finally:
            stop.set()
            conn.close()
        pinger.join(timeout=10)
        try:
            assert not pinger.is_alive()
            assert pings and all(p == {"ok": True, "pong": True}
                                 for p in pings)
            assert bystander.call({"op": "ping"})["pong"] is True
        finally:
            bystander.close()

    def test_frame_at_the_bound_is_served(self, server):
        head = b'{"op": "ping", "pad": "'
        tail = b'"}'
        pad = b"x" * (wire.MAX_FRAME_BYTES - len(head) - len(tail))
        conn = Raw(server.address)
        try:
            conn.send(head + pad + tail + b"\n")
            assert conn.reply() == {"ok": True, "pong": True}
        finally:
            conn.close()


class TestServeLines:
    def test_blank_lines_get_no_reply(self, endpoint):
        conn = Raw(endpoint)
        try:
            conn.send(b"\n  \r\n")
            assert conn.call({"op": "ping"})["pong"] is True
        finally:
            conn.close()

    def test_close_through_a_router_ends_the_connection(self, router):
        conn = Raw(router.address)
        try:
            assert conn.call({"op": "close"})["closing"] is True
            assert conn.reader.readline() == b""
        finally:
            conn.close()


class TestConnection:
    def test_call_once(self, endpoint):
        reply = wire.call_once(endpoint, {"op": "ping"}, timeout=5)
        assert reply == {"ok": True, "pong": True}

    def test_error_replies_are_returned_not_raised(self, server):
        reply = wire.call_once(server.address, {"op": "nope"}, timeout=5)
        assert reply["error"] == "protocol"
        with pytest.raises(ProtocolError, match="unknown op"):
            raise wire.reply_error(reply)

    def test_closed_peer_is_a_connection_reset(self, server):
        conn = wire.Connection(server.address, timeout=5)
        try:
            assert conn.call({"op": "close"})["closing"] is True
            with pytest.raises(OSError):
                conn.call({"op": "ping"})
        finally:
            conn.close()
