"""The JSON-lines wire format, in one place.

Every vidb endpoint — :class:`~vidb.service.server.VideoServer`,
:class:`~vidb.cluster.router.ClusterRouter` and the clients that talk to
them — frames messages the same way: one JSON object per
``\\n``-terminated UTF-8 line.  This module is the only code that reads
or writes that framing:

* :func:`encode` / :func:`decode` turn a message into a frame and back;
* :data:`MAX_FRAME_BYTES` bounds a request frame.  A longer request
  (or a newline-less stream past the bound) gets one ``protocol`` error
  reply, then the connection closes: the rest of the frame cannot be
  told apart from the next request;
* :data:`ERROR_KINDS`, :func:`error_reply` and :func:`reply_error` map
  exceptions to ``{"ok": false, "error": <kind>, "message": ...}``
  replies and back, so ``except ServiceOverloadedError`` works across
  the wire;
* :func:`serve_lines` is the one request loop, driven by a
  ``dispatch(request) -> (reply, keep_open)`` callable, and
  :class:`LineServer` / :class:`LineHandler` run it on a thread per
  connection;
* :class:`Connection` and :func:`call_once` are the client end.

Replies are read unbounded: the peer is a vidb server, and a ``wal``
snapshot or a large answer set may exceed any fixed request bound.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
from typing import (Any, Callable, Dict, Iterable, Optional, Tuple, Type,
                    Union, cast)

from vidb.errors import (
    ClusterError,
    FencedError,
    ModelError,
    ProtocolError,
    QueryError,
    QueryTimeoutError,
    ReadOnlyError,
    ReplicaLagError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    SessionError,
    StandingQueryError,
    VidbError,
)

_log = logging.getLogger(__name__)

#: The largest request frame a server reads, newline excluded.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: error kind <-> exception class.  Subclasses precede their bases, so
#: the first ``isinstance`` match is the most specific kind.  Unknown
#: kinds decode as plain :class:`ServiceError`.
ERROR_KINDS = {
    "overloaded": ServiceOverloadedError,
    "timeout": QueryTimeoutError,
    "closed": ServiceClosedError,
    "standing": StandingQueryError,
    "session": SessionError,
    "protocol": ProtocolError,
    "read_only": ReadOnlyError,
    "lagging": ReplicaLagError,
    "fenced": FencedError,
    "cluster": ClusterError,
    "service": ServiceError,
    "query": QueryError,
    "model": ModelError,
    "vidb": VidbError,
}

Message = Dict[str, Any]
#: ``True`` keeps reading requests, ``False`` closes after the reply,
#: and an iterable of messages turns the connection into a push stream:
#: each message is written as it arrives, then the connection closes.
KeepOpen = Union[bool, Iterable[Message]]
Dispatch = Callable[[Message], Tuple[Message, KeepOpen]]


def encode(message: Message) -> bytes:
    """One frame: the message as JSON, then ``\\n``."""
    return (json.dumps(message) + "\n").encode("utf-8")


def decode(frame: bytes) -> Message:
    """The JSON object in *frame*; :class:`ProtocolError` otherwise."""
    try:
        message = json.loads(frame.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise ProtocolError(f"bad JSON line: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError("a message must be a JSON object")
    return message


def error_kind(error: BaseException) -> str:
    """The wire kind of *error*: its :data:`ERROR_KINDS` entry, then
    ``protocol`` for any ``ValueError`` (bad input), else ``service``."""
    if isinstance(error, VidbError):
        for kind, cls in ERROR_KINDS.items():
            if isinstance(error, cls):
                return kind
    return "protocol" if isinstance(error, ValueError) else "service"


def error_reply(error: BaseException) -> Message:
    """The reply that reports *error* to the peer."""
    kind = error_kind(error)
    message = str(error)
    if kind == "service" and not isinstance(error, VidbError):
        message = f"internal error: {type(error).__name__}: {error}"
    reply: Message = {"ok": False, "error": kind, "message": message}
    if isinstance(error, StandingQueryError):
        # Located diagnostics let the client point at the offending
        # rule or query spans.
        reply["diagnostics"] = [d.as_dict() for d in error.diagnostics]
    return reply


def reply_error(reply: Message) -> VidbError:
    """The exception an error reply stands for."""
    cls = ERROR_KINDS.get(str(reply.get("error")), ServiceError)
    error = cls(str(reply.get("message", "server error")))
    if isinstance(error, StandingQueryError):
        error.diagnostics = tuple(reply.get("diagnostics") or ())
    return error


def serve_lines(rfile, wfile, dispatch: Dispatch,
                observe: Optional[Callable[[Optional[Message], Message],
                                           None]] = None) -> None:
    """Answer request frames from *rfile* on *wfile* until the peer
    closes, a reply asks to close, or a frame exceeds the bound.

    Every non-blank line gets exactly one reply: a frame that is not a
    JSON object gets a ``protocol`` error, and any exception escaping
    ``dispatch`` becomes an error reply (:func:`error_reply`) with the
    connection kept open.  ``observe(request, reply)`` sees each reply
    before it is written; ``request`` is None when the frame did not
    decode.
    """
    while True:
        frame = rfile.readline(MAX_FRAME_BYTES + 1)
        if not frame:
            return
        line = frame.strip()
        request: Optional[Message] = None
        keep_open: KeepOpen
        if len(frame) > MAX_FRAME_BYTES and not frame.endswith(b"\n"):
            reply = error_reply(ProtocolError(
                f"request frame exceeds {MAX_FRAME_BYTES} bytes"))
            data, keep_open = encode(reply), False
        elif not line:
            continue
        else:
            try:
                request = decode(line)
                reply, keep_open = dispatch(request)
                data = encode(reply)
            except Exception as error:
                if not isinstance(error, (VidbError, ValueError)):
                    # A bug rather than bad input: keep serving, but
                    # leave the traceback for the operator.
                    _log.exception("unexpected error serving op %r",
                                   request.get("op") if request else None)
                reply, keep_open = error_reply(error), True
                data = encode(reply)
        if observe is not None:
            observe(request, reply)
        try:
            wfile.write(data)
            if isinstance(keep_open, bool):
                if keep_open:
                    continue
            else:
                for message in keep_open:
                    wfile.write(encode(message))
        except OSError:
            pass
        return


class LineHandler(socketserver.StreamRequestHandler):
    """One connection of a :class:`LineServer`, served by
    :func:`serve_lines`.  Subclasses implement :meth:`dispatch` and may
    override :meth:`observe`."""

    def setup(self) -> None:
        super().setup()
        self.owner = cast("LineServer", self.server).owner

    def handle(self) -> None:
        serve_lines(self.rfile, self.wfile, self.dispatch, self.observe)

    def dispatch(self, request: Message) -> Tuple[Message, KeepOpen]:
        raise NotImplementedError

    def observe(self, request: Optional[Message], reply: Message) -> None:
        pass


class LineServer(socketserver.ThreadingTCPServer):
    """A thread-per-connection TCP server of :class:`LineHandler`
    connections; ``owner`` is what the handlers serve (an executor or a
    router)."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], handler: Type[LineHandler],
                 owner: Any):
        self.owner = owner
        self._thread: Optional[threading.Thread] = None
        super().__init__(address, handler)

    @property
    def address(self) -> Tuple[str, int]:
        return self.server_address[:2]

    def serve(self) -> None:
        self.serve_forever(poll_interval=0.1)

    def start_background(self, name: str) -> None:
        self._thread = threading.Thread(target=self.serve, name=name,
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


class Connection:
    """One blocking client connection to a vidb endpoint.

    Transport failures surface as ``OSError`` (a peer that closed
    mid-call as ``ConnectionResetError``); a reply that is not a JSON
    object as :class:`ProtocolError`.  Error replies are returned, not
    raised — see :func:`reply_error`.
    """

    def __init__(self, address: Tuple[str, int], timeout: float):
        self.address = address
        self._sock = socket.create_connection(address, timeout=timeout)
        self._reader = self._sock.makefile("rb")

    def send(self, request: Message) -> None:
        self._sock.sendall(encode(request))

    def read(self) -> Optional[Message]:
        """The next message from the peer; None once it closed."""
        line = self._reader.readline()
        return decode(line) if line else None

    def call(self, request: Message) -> Message:
        """Send *request* and return its reply."""
        self.send(request)
        reply = self.read()
        if reply is None:
            raise ConnectionResetError("peer closed the connection")
        return reply

    def close(self) -> None:
        for closer in (self._reader.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass


def call_once(address: Tuple[str, int], request: Message,
              timeout: float) -> Message:
    """One request over a fresh connection, closed afterwards."""
    conn = Connection(address, timeout)
    try:
        return conn.call(request)
    finally:
        conn.close()
