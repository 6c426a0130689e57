"""Protocol fuzzing: hostile bytes never escape the wire contract.

Garbage bytes, invalid UTF-8, JSON that is not an object, truncated
lines and wrongly typed fields for every op go to a server and to a
router in front of one.  Every complete non-blank line must get exactly
one reply — a JSON object with a boolean ``ok`` — and the connection
must still answer ``ping`` afterwards.  ``close`` and oversized frames
end a connection by design; tests/unit/service/test_wire.py covers
them.
"""

import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidb.cluster import ClusterRouter
from vidb.service.executor import ServiceExecutor
from vidb.service.server import VideoServer
from vidb.workloads.paper import rope_database

#: The ops a fuzzed request may name, with the fields each one reads.
#: Left out: ``close`` (ends the connection), ``listen`` (turns it into
#: a push stream) and the router's ``repoint`` (moves the primary).
OP_FIELDS = {
    "ping": [], "info": [], "metrics": [], "subscriptions": [],
    "cluster": [], "cluster_health": [],
    "query": ["query", "timeout", "limit", "profile", "min_lsn", "wait_s"],
    "prepare": ["name", "query", "params"],
    "execute": ["name", "params", "timeout", "limit", "min_lsn", "wait_s"],
    "insert_entity": ["oid", "attributes"],
    "insert_interval": ["oid", "entities", "duration", "attributes"],
    "relate": ["relation", "args"],
    "declare_relation": ["name"],
    "batch": ["ops"],
    "subscribe": ["query", "filter", "max_queue", "detach"],
    "unsubscribe": ["id"],
    "poll": ["id", "wait_s", "max_batches"],
    "lint": ["text"],
    "events": ["limit", "type"],
    "trace": ["id", "limit"],
    "traces": ["limit"],
    "wal": ["after", "limit"],
    "promote": ["data_dir"],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=8)


@st.composite
def requests(draw):
    op = draw(st.sampled_from(sorted(OP_FIELDS)))
    names = st.sampled_from(OP_FIELDS[op] + ["trace"])
    fields = draw(st.dictionaries(names, json_values, max_size=4))
    return {"op": op, **fields}


def encode(request) -> bytes:
    return json.dumps(request).encode("utf-8")


garbage = st.binary(max_size=200)
invalid_utf8 = st.builds(lambda head, tail: head + b"\xff\xc3(" + tail,
                         st.binary(max_size=30), st.binary(max_size=30))
non_objects = json_values.filter(lambda v: not isinstance(v, dict)).map(
    encode)
truncated = st.builds(lambda frame, cut: frame[:cut % len(frame)],
                      requests().map(encode), st.integers(min_value=0))
typed = requests().map(encode)


@pytest.fixture(scope="module")
def server():
    service = ServiceExecutor(rope_database(), max_workers=2)
    with service, VideoServer(service, port=0) as srv:
        srv.start_background()
        yield srv


@pytest.fixture(scope="module", params=["server", "router"])
def endpoint(request, server):
    if request.param == "server":
        yield server.address
        return
    with ClusterRouter(server.address, []) as router:
        router.start()
        yield router.address


def expected_replies(stream: bytes):
    """How many replies *stream* is owed, and whether a ``close``
    request among its lines (garbage can spell one) ends it early."""
    count = 0
    for line in stream.split(b"\n")[:-1]:
        if not line.strip():
            continue
        count += 1
        try:
            request = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):
            continue
        if isinstance(request, dict) and request.get("op") == "close":
            return count, True
    return count, False


def ping(address) -> None:
    with socket.create_connection(address, timeout=75) as sock:
        sock.sendall(b'{"op": "ping"}\n')
        assert json.loads(sock.makefile("rb").readline()) == {
            "ok": True, "pong": True}


def assert_contract(address, lines) -> None:
    """Send *lines* (each then ended by a newline) on one connection."""
    stream = b"".join(line + b"\n" for line in lines)
    expected, closes = expected_replies(stream)
    with socket.create_connection(address, timeout=75) as sock:
        reader = sock.makefile("rb")
        sock.sendall(stream)
        for __ in range(expected):
            reply = json.loads(reader.readline())
            assert isinstance(reply, dict)
            assert isinstance(reply.get("ok"), bool)
        if closes:
            assert reader.readline() == b""
            ping(address)
            return
        sock.sendall(b'{"op": "ping"}\n')
        assert json.loads(reader.readline()) == {"ok": True, "pong": True}


class TestWireNeverDropsAConnection:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(garbage, min_size=1, max_size=4))
    def test_garbage_bytes(self, endpoint, lines):
        assert_contract(endpoint, lines)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(invalid_utf8, min_size=1, max_size=3))
    def test_invalid_utf8(self, endpoint, lines):
        assert_contract(endpoint, lines)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(non_objects, min_size=1, max_size=4))
    def test_json_that_is_not_an_object(self, endpoint, lines):
        assert_contract(endpoint, lines)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(truncated, min_size=1, max_size=4))
    def test_truncated_lines(self, endpoint, lines):
        assert_contract(endpoint, lines)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(typed, min_size=1, max_size=4))
    def test_wrongly_typed_fields(self, endpoint, lines):
        assert_contract(endpoint, lines)
