"""A stdlib-only JSON-lines TCP server and client for the query service.

Wire protocol: one JSON object per ``\\n``-terminated line, UTF-8.
Requests carry an ``op`` field; responses carry ``ok`` (bool) plus
op-specific fields, or ``{"ok": false, "error": <kind>, "message": ...}``.
The framing, the request-size bound, the error kinds and the request
loop live in :mod:`vidb.service.wire`; this module holds the ops.
A field of the wrong type is a ``protocol`` error.

Operations::

    {"op": "ping"}
    {"op": "info"}
    {"op": "query",   "query": "?- object(O).", "timeout": 5, "limit": 10,
                      "profile": true}
    {"op": "prepare", "name": "q1", "query": "?- ...", "params": ["O"]}
    {"op": "execute", "name": "q1", "params": {"O": "o1"}}
    {"op": "insert_entity",   "oid": "o9", "attributes": {"name": "David"}}
    {"op": "insert_interval", "oid": "gi9", "entities": ["o9"],
                              "duration": [[0, 10]], "attributes": {}}
    {"op": "relate",  "relation": "in", "args": ["o1", "o2", "gi1"]}
    {"op": "lint",    "text": "big(G) :- interval(G), G.start < 1."}
    {"op": "metrics"}
    {"op": "trace",   "limit": 10}
    {"op": "trace",   "id": "4bf92f3577b34da6a3ce929d0e0e4736"}
    {"op": "traces",  "limit": 20}
    {"op": "events",  "limit": 10, "type": "slow_query"}
    {"op": "wal",     "after": 42, "limit": 1000}
    {"op": "declare_relation", "name": "appears"}
    {"op": "batch",   "ops": [{"op": "insert_entity", "oid": "o9",
                               "attributes": {}}, ...]}
    {"op": "subscribe",   "query": "?- appears(O, G).",
                          "filter": {"O": "o1"}, "max_queue": 256,
                          "detach": false}
    {"op": "unsubscribe", "id": "sub1"}
    {"op": "poll",        "id": "sub1", "wait_s": 1.0, "max_batches": 10}
    {"op": "subscriptions"}
    {"op": "listen",      "id": "sub1"}
    {"op": "close"}

Streaming (see :mod:`vidb.stream` and docs/STREAMING.md): ``batch``
applies its sub-ops (``insert_entity`` / ``insert_interval`` /
``relate`` / ``declare_relation``) in **one** transaction — one atomic
commit, one notification round for standing queries, full rollback on
any failure.  ``subscribe`` registers a standing query and returns a
subscription id; each later commit's *new* answers arrive as ordered
batches (``seq``, post-commit ``epoch``, rendered ``rows``) that the
client drains with ``poll`` (``wait_s`` bounds a blocking wait).
Queues are bounded: a slow consumer loses oldest batches first and the
oldest surviving batch carries ``"lagged": true`` plus cumulative drop
counts — loss is explicit, never silent.  ``listen`` switches the
connection to push mode: after the ack, the server streams each batch
as its own ``{"push": true, ...}`` line until the subscription closes
(the connection serves nothing else afterwards).  Subscriptions die
with the session/connection that created them unless ``detach`` was
set; ``subscriptions`` lists live ones (the ``vidb top`` panel).

The ``events`` op returns the service's structured event log (slow
queries above ``--slow-query-ms``, admission rejections, durability
checkpoints, replica resyncs — see :mod:`vidb.obs.events`), most recent
first, optionally filtered by event type.  Every request is also
counted into the labeled ``requests_total{op=,outcome=}`` metric
family, so per-op error rates show up on the ``metrics`` op and the
Prometheus exporter.

The ``wal`` op ships write-ahead-log records after the given LSN to a
log-shipping replica (see :mod:`vidb.durability.replica`); it answers
with a full snapshot (``"resync": true``) when the follower is older
than the latest checkpoint, and fails with a ``service`` error when the
server is not running durably (no ``--data-dir``).

The ``lint`` op statically analyzes a rule/query document against the
server's database and installed program without installing it (see
:mod:`vidb.analysis`); the response carries ``diagnostics`` (structured
``VDB0xx`` findings), ``summary`` and ``ok_to_load``.

A query with ``"profile": true`` runs traced (bypassing the result
cache) and its response additionally carries ``stats``, ``profile``
(the rendered EXPLAIN ANALYZE-style text) and the span tree under
``trace``.  The ``trace`` op without an ``id`` returns the service
metrics snapshot plus summaries of the most recently executed queries;
with an ``id`` it returns this process's retained flight-recorder
segments of that distributed trace, and ``traces`` lists recent
segment summaries (see below).

Distributed tracing (see :mod:`vidb.obs.trace` and
docs/OBSERVABILITY.md): every request may carry an optional ``"trace"``
field holding a W3C-traceparent-style header
(``00-<trace_id>-<span_id>-<flags>``).  A sampled header makes the
handler record the request as a flight-recorder *segment* — node
identity (role / host / port / generation), wall-clock timing, and a
local span tree (``server.query`` wrapping ``wait_for_lsn`` and the
engine's own evaluation spans) parented to the sender's span id — and
the successful response echoes this process's own header under
``"trace"``.  Requests without a header are head-sampled at
``--trace-sample`` rate; slow-over-threshold and errored requests are
retained even unsampled.  Mutating requests run under the ambient
trace context, so the commit deltas they produce (and the standing-
query notification batches those cause) carry the trace header too.

Each connection gets its own :class:`~vidb.service.session.Session`, so
prepared queries are per-connection state, exactly like prepared
statements in a SQL server.  Answer values are serialized as strings
(the same rendering the CLI prints).

:class:`ServiceClient` is the matching blocking client, built on
:class:`~vidb.service.wire.Connection`; it re-raises server-side error
kinds as the corresponding :mod:`vidb.errors` classes so ``except
ServiceOverloadedError`` works across the wire.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from vidb.errors import (
    ClusterError,
    ProtocolError,
    ReplicaLagError,
    ServiceError,
)
from vidb.analysis.lint import summarize as lint_summary
from vidb.obs.trace import TraceContext, parse_traceparent, use_context
from vidb.obs.tracer import Tracer, current_tracer
from vidb.query.execution import ExecutionOptions
from vidb.service.executor import ServiceExecutor
from vidb.service.wire import (
    Connection,
    KeepOpen,
    LineHandler,
    LineServer,
    reply_error,
)

#: Side-effect-free ops a client may safely resend after a transient
#: transport failure (connection reset mid-flight); everything else
#: might have been applied before the failure and must not be retried
#: blindly.
IDEMPOTENT_OPS = frozenset({
    "ping", "info", "query", "execute", "lint", "metrics", "trace",
    "traces", "events", "wal", "cluster", "cluster_health",
    "subscriptions",
})

#: Ops eligible for head-based sampling (and slow/error forced
#: retention) when no trace context arrives with the request.  A
#: request that *does* carry a sampled context is traced whatever its
#: op — mutations included, so their commit deltas get stamped.
_TRACED_OPS = frozenset({"query", "execute"})

#: Mutation ops, which ``batch`` also takes as sub-ops, and the reply
#: field naming what each one made.
_MUTATIONS = {"insert_entity": "oid", "insert_interval": "oid",
              "relate": "fact", "declare_relation": "relation"}


def _answers_payload(answers, limit: Optional[int]) -> Dict[str, Any]:
    rows = [[str(value) for value in row] for row in answers.rows()]
    if limit is not None:
        rows = rows[:limit]
    return {
        "variables": list(answers.variables),
        "rows": rows,
        "count": len(answers),
    }


def _pushes(subscription) -> Iterator[Dict[str, Any]]:
    """Push mode: each notification batch as its own message, until the
    subscription closes (the wire loop stops early when the client
    goes away)."""
    while True:
        batches = subscription.poll(wait_s=0.5)
        for batch in batches:
            yield {"push": True, "id": subscription.id, **batch}
        if not batches and subscription.closed:
            yield {"push": True, "id": subscription.id, "closed": True}
            return


class _Handler(LineHandler):
    """One thread per connection; one service session per connection."""

    def setup(self) -> None:
        super().setup()
        self.service: ServiceExecutor = self.owner
        self.session = self.service.open_session()
        self._requests = self.service.metrics.counter_family(
            "requests_total", ("op", "outcome"))

    def finish(self) -> None:
        self.session.close()
        super().finish()

    def observe(self, request: Optional[Dict[str, Any]],
                reply: Dict[str, Any]) -> None:
        op = "?" if request is None else str(request.get("op"))
        outcome = "ok" if reply.get("ok") else str(reply.get("error", "error"))
        self._requests.labels(op=op, outcome=outcome).inc()

    def _node(self) -> Dict[str, Any]:
        """The node identity stamped onto this process's segments."""
        node = self.service.node_identity()
        address = self.server.server_address[:2]
        node["host"] = str(address[0])
        node["port"] = int(address[1])
        return node

    def dispatch(self, request: Dict[str, Any]
                 ) -> Tuple[Dict[str, Any], KeepOpen]:
        """Adopt the request's trace context (or head-sample one) around
        :meth:`_dispatch`; see the module docstring for the contract."""
        op = str(request.get("op"))
        recorder = self.service.flight_recorder
        parent = (parse_traceparent(request.get("trace"))
                  if "trace" in request else None)
        context: Optional[TraceContext] = None
        if parent is not None and parent.sampled:
            context = parent.child()
        elif parent is None and op in _TRACED_OPS and recorder.should_sample():
            context = TraceContext.new()
        if context is None:
            if op not in _TRACED_OPS:
                return self._dispatch(request)
            # Untraced, but still black-box recorded when it turns out
            # slow or errored (an unsampled parent keeps the trace id).
            started_at = time.time()
            began = time.perf_counter()
            status, error_text = "ok", None
            try:
                return self._dispatch(request)
            except Exception as error:
                status, error_text = "error", str(error)
                raise
            finally:
                duration_s = time.perf_counter() - began
                if status == "error" or recorder.is_slow(duration_s):
                    recorder.record(
                        parent.child() if parent is not None else None,
                        node=self._node(), op=op,
                        parent_span_id=(parent.span_id if parent is not None
                                        else None),
                        status=status, error=error_text,
                        started_at=started_at, duration_s=duration_s)
        tracer = Tracer()
        node = self._node()
        started_at = time.time()
        began = time.perf_counter()
        status, error_text = "ok", None
        try:
            with use_context(context), tracer.activate():
                with tracer.span(f"server.{op}", op=op):
                    response, keep_open = self._dispatch(request)
        except Exception as error:
            status, error_text = "error", str(error)
            raise
        finally:
            recorder.record(
                context, root=tracer.root(), node=node, op=op,
                parent_span_id=(parent.span_id if parent is not None
                                else None),
                status=status, error=error_text, started_at=started_at,
                duration_s=time.perf_counter() - began)
        response.setdefault("trace", context.to_header())
        return response, keep_open

    def _dispatch(self, request: Dict[str, Any]
                  ) -> Tuple[Dict[str, Any], KeepOpen]:
        service, session = self.service, self.session
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}, True
        if op == "info":
            payload = {"ok": True, "database": service.db.name,
                       "epoch": service.db.epoch,
                       "role": service.node_identity()["role"],
                       "read_only": service.read_only,
                       "kernel": service.engine.kernel.name,
                       "stats": service.db.stats()}
            lsn = service.applied_lsn()
            if lsn is not None:
                payload["lsn"] = lsn
            if service.durability is not None:
                payload["generation"] = service.durability.generation
            return payload, True
        if op == "query":
            text = _required(request, "query", str)
            limit = _field(request, "limit", int)
            timeout = _field(request, "timeout", _NUMBER)
            profile = bool(request.get("profile"))
            tracer = current_tracer()
            _await_token(service, request)
            report = session.run(
                text, options=ExecutionOptions(trace=profile
                                               or tracer.enabled),
                timeout=timeout)
            if tracer.enabled and report.trace is not None:
                # Graft the engine's span tree (built on the worker
                # thread) under this request's wire-level span, so the
                # flight-recorder segment carries the full picture.
                wire_span = tracer.current()
                if wire_span is not None:
                    wire_span.children.append(report.trace)
            payload = _answers_payload(report.answers, limit)
            payload["ok"] = True
            if profile:
                payload["stats"] = report.stats.as_dict()
                payload["profile"] = report.profile()
                if report.trace is not None:
                    payload["trace"] = report.trace.as_dict()
            return payload, True
        if op == "prepare":
            name = _required(request, "name", str)
            prepared = session.prepare(name,
                                       _required(request, "query", str),
                                       params=_field(request, "params", list,
                                                     ()))
            return {"ok": True, "name": name,
                    "variables": list(prepared.variables),
                    "params": list(prepared.params)}, True
        if op == "execute":
            name = _required(request, "name", str)
            params = _field(request, "params", dict, {})
            limit = _field(request, "limit", int)
            timeout = _field(request, "timeout", _NUMBER)
            _await_token(service, request)
            answers = session.execute(name, timeout=timeout, **params)
            payload = _answers_payload(answers, limit)
            payload["ok"] = True
            return payload, True
        if op in _MUTATIONS:
            made = service.mutate(_mutation(request))
            return _write_reply(service, **{_MUTATIONS[op]: made}), True
        if op == "batch":
            ops = _required(request, "ops", list)
            mutations = [_batch_item(index, sub_op)
                         for index, sub_op in enumerate(ops)]

            def _apply(db):
                for mutation in mutations:
                    mutation(db)
                return len(mutations)

            applied = service.apply_batch(_apply)
            return _write_reply(service, applied=applied), True
        if op == "subscribe":
            text = _required(request, "query", str)
            subscription = service.subscribe(
                text, filter=_field(request, "filter", dict),
                max_queue=_field(request, "max_queue", int),
                session_id=session.id,
                detached=bool(request.get("detach")))
            session.subscription_ids.append(subscription.id)
            return {"ok": True, "id": subscription.id,
                    "variables": list(subscription.variables),
                    "epoch": service.db.epoch,
                    "detached": subscription.detached,
                    "maintenance":
                        subscription.classification.get("maintenance"),
                    "diagnostics": [d.as_dict()
                                    for d in subscription.diagnostics
                                    if d.code.startswith("VDB06")]}, True
        if op == "unsubscribe":
            sub_id = _required(request, "id", str)
            return {"ok": True, "id": sub_id,
                    "removed": service.unsubscribe(sub_id)}, True
        if op == "poll":
            sub_id = _required(request, "id", str)
            wait_s = _field(request, "wait_s", _NUMBER)
            max_batches = _field(request, "max_batches", int)
            subscription = service.subscription(sub_id)
            batches = subscription.poll(
                max_batches=max_batches,
                wait_s=min(wait_s, 60.0) if wait_s else None)
            return {"ok": True, "id": subscription.id, "batches": batches,
                    "pending": subscription.queue_depth(),
                    "closed": subscription.closed}, True
        if op == "subscriptions":
            return {"ok": True,
                    "subscriptions": service.describe_subscriptions()}, True
        if op == "listen":
            # After the ack the connection is dedicated to pushes.
            subscription = service.subscription(_required(request, "id", str))
            return ({"ok": True, "id": subscription.id, "listening": True},
                    _pushes(subscription))
        if op == "lint":
            text = _required(request, "text", str)
            result = service.lint(text)
            return {"ok": True,
                    "diagnostics": list(result.as_dicts()),
                    "summary": lint_summary(result),
                    "ok_to_load": not result.has_errors}, True
        if op == "metrics":
            return {"ok": True, "metrics": service.snapshot()}, True
        if op == "trace":
            trace_id = _field(request, "id", str)
            if trace_id is not None:
                return {"ok": True, "id": trace_id,
                        "segments":
                            service.flight_recorder.get(trace_id)}, True
            return {"ok": True, "metrics": service.snapshot(),
                    "recent": service.recent_traces(
                        limit=_field(request, "limit", int))}, True
        if op == "traces":
            return {"ok": True,
                    "traces": service.flight_recorder.summaries(
                        _field(request, "limit", int, 20))}, True
        if op == "events":
            return {"ok": True,
                    "events": service.recent_events(
                        limit=_field(request, "limit", int),
                        type=_field(request, "type", str))}, True
        if op == "wal":
            if service.replica is not None:
                # A serving replica has no shippable WAL of its own; the
                # op instead reports its replication position — the
                # router's lag signal and ``vidb promote``'s ballot.
                replica = service.replica
                return {"ok": True, "role": "replica", "read_only": True,
                        "applied_lsn": replica.applied_lsn,
                        "visible_lsn": replica.visible_lsn,
                        "lag_lsn": replica.lag_lsn}, True
            if service.durability is None:
                raise ServiceError(
                    "server is not durable (start it with --data-dir "
                    "to enable log shipping)")
            reply = service.durability.ship(
                _field(request, "after", int, 0),
                limit=_field(request, "limit", int))
            reply["ok"] = True
            return reply, True
        if op == "promote":
            hook = service.promote_hook
            if hook is None:
                raise ClusterError(
                    "this server is not a promotable replica "
                    "(start it with 'vidb replicate --serve-port')")
            result = hook(data_dir=_field(request, "data_dir", str))
            reply = dict(result or {})
            reply["ok"] = True
            return reply, True
        if op == "close":
            return {"ok": True, "closing": True}, False
        raise ProtocolError(f"unknown op {op!r}")


def _await_token(service: ServiceExecutor, request: Dict[str, Any]) -> None:
    """Honor a session-consistency token (``min_lsn``) on a read.

    Holds the read until this server's state covers the token, bounded
    by ``wait_s`` (default: the executor's ``lsn_wait_s``); past the
    bound the read fails with a ``lagging`` error so the caller — the
    router, usually — redirects it to the primary instead of returning
    stale data.
    """
    min_lsn = _field(request, "min_lsn", int)
    if min_lsn is None:
        return
    wait_s = _field(request, "wait_s", _NUMBER)
    with current_tracer().span("wait_for_lsn", min_lsn=min_lsn) as span:
        reached = service.wait_for_lsn(min_lsn, timeout_s=wait_s)
        span.annotate(applied=service.applied_lsn(), reached=reached)
    if not reached:
        raise ReplicaLagError(
            f"replica applied LSN {service.applied_lsn()} has not "
            f"reached the session token {min_lsn}; "
            f"read from the primary")


def _write_reply(service: ServiceExecutor, **fields: Any) -> Dict[str, Any]:
    """A mutation response: op fields, the new epoch and — when durable
    — the WAL head LSN, the client's read-your-writes session token."""
    reply: Dict[str, Any] = {"ok": True, **fields,
                             "epoch": service.db.epoch}
    if service.durability is not None:
        reply["head_lsn"] = service.durability.last_lsn
    return reply


_NUMBER = (int, float)
_KIND_NAMES = {str: "a string", int: "an integer", _NUMBER: "a number",
               list: "an array", dict: "an object"}


def _field(request: Dict[str, Any], name: str, kind, default: Any = None
           ) -> Any:
    """``request[name]`` checked against *kind*; *default* when the
    field is absent or null.  A wrong type is a ``protocol`` error (and
    ``true`` is not a number)."""
    value = request.get(name)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ProtocolError(f"op {request.get('op')!r}: {name!r} must be "
                            f"{_KIND_NAMES[kind]}")
    return value


def _required(request: Dict[str, Any], field: str, kind) -> Any:
    value = _field(request, field, kind)
    if value is None:
        raise ProtocolError(f"op {request.get('op')!r} needs "
                            f"{_KIND_NAMES[kind]} field {field!r}")
    return value


def _resolve_arg(db, value: Any) -> Any:
    """A relation argument: an existing oid when one matches, else a
    constant (the same resolution rule symbols get in query text)."""
    if isinstance(value, str):
        from vidb.model.oid import Oid

        for oid in (Oid.entity(value), Oid.interval(value)):
            if db.get(oid) is not None:
                return oid
    return value


def _mutation(request: Dict[str, Any]) -> Callable[[Any], str]:
    """Check one mutation request (a :data:`_MUTATIONS` op) and return
    the function that applies it to the database, naming what it made."""
    kind = request.get("op")
    if kind == "insert_entity":
        oid = _required(request, "oid", str)
        attributes = _field(request, "attributes", dict, {})
        return lambda db: str(db.new_entity(oid, **attributes).oid)
    if kind == "insert_interval":
        oid = _required(request, "oid", str)
        entities = _field(request, "entities", list, ())
        attributes = _field(request, "attributes", dict, {})
        duration = _field(request, "duration", list)
        if duration is not None:
            if not all(isinstance(pair, list) and len(pair) == 2
                       and all(isinstance(end, _NUMBER)
                               and not isinstance(end, bool)
                               for end in pair)
                       for pair in duration):
                raise ProtocolError(
                    f"op {kind!r}: 'duration' must be an array of "
                    f"[start, end] number pairs")
            duration = [tuple(pair) for pair in duration]
        return lambda db: str(db.new_interval(
            oid, entities=entities, duration=duration, **attributes).oid)
    if kind == "relate":
        relation = _required(request, "relation", str)
        args = _field(request, "args", list, [])
        return lambda db: str(db.relate(
            relation, *[_resolve_arg(db, a) for a in args]))
    if kind == "declare_relation":
        name = _required(request, "name", str)

        def _declare(db) -> str:
            db.declare_relation(name)
            return name
        return _declare
    raise ProtocolError(
        f"unknown sub-op {kind!r} (supported: {', '.join(_MUTATIONS)})")


def _batch_item(index: int, sub_op: Any) -> Callable[[Any], str]:
    """One checked ``batch`` sub-op, its errors naming its position."""
    if not isinstance(sub_op, dict):
        raise ProtocolError(f"batch item {index} must be an object")
    try:
        return _mutation(sub_op)
    except ProtocolError as error:
        raise ProtocolError(f"batch item {index}: {error}") from None


class VideoServer:
    """The TCP front end of a :class:`ServiceExecutor`.

    ``port=0`` binds an ephemeral port; read the actual address from
    :attr:`address` (the tests and the smoke job rely on this).
    """

    def __init__(self, service: ServiceExecutor,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._server = LineServer((host, port), _Handler, service)

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.address

    def serve_forever(self) -> None:
        self._server.serve()

    def start_background(self) -> "VideoServer":
        self._server.start_background("vidb-server")
        return self

    def shutdown(self) -> None:
        self._server.stop()

    def __enter__(self) -> "VideoServer":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown()
        return False

    def __repr__(self) -> str:
        host, port = self.address
        return f"VideoServer({host}:{port})"


class ServiceClient:
    """A blocking JSON-lines client for :class:`VideoServer`.

    Session consistency: every durable write response carries
    ``head_lsn``; the client remembers the highest one as
    :attr:`session_lsn` and threads it into subsequent ``query`` /
    ``execute`` calls as ``min_lsn``, so reads routed to a replica
    (see :mod:`vidb.cluster`) never observe state older than this
    client's own writes.

    Transport resilience: a request whose connection dies mid-flight is
    retried **once** — after a reconnect and a short jittered backoff —
    but only for idempotent read ops (:data:`IDEMPOTENT_OPS`); a write
    might have been applied before the failure, so it surfaces the
    error instead.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7421,
                 timeout: float = 30.0,
                 trace_context: Optional[TraceContext] = None):
        self._address = (host, port)
        self._timeout = timeout
        self._conn = Connection(self._address, timeout)
        self._lock = threading.Lock()
        #: Highest WAL LSN any of this client's writes reached — the
        #: read-your-writes token (0 until the first durable write).
        self.session_lsn = 0
        #: Root trace context: when set, every request carries a child
        #: traceparent header of it, so everything this client touches
        #: (router hops, replica waits, commit notifications) shares one
        #: trace id — the client-visible root of the assembled tree.
        self.trace_context = trace_context

    def _call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            return self._conn.call(payload)

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request, wait for its response; raises on error."""
        payload = {"op": op, **{k: v for k, v in fields.items()
                                if v is not None}}
        if self.trace_context is not None and "trace" not in payload:
            payload["trace"] = self.trace_context.to_header()
        try:
            response = self._call(payload)
        except (ConnectionResetError, BrokenPipeError):
            if op not in IDEMPOTENT_OPS:
                raise ProtocolError("server closed the connection") from None
            # Jitter keeps a fleet of clients from stampeding a server
            # that just restarted.
            time.sleep(random.uniform(0.02, 0.1))
            with self._lock:
                self._conn.close()
                self._conn = Connection(self._address, self._timeout)
            try:
                response = self._call(payload)
            except (ConnectionResetError, BrokenPipeError):
                raise ProtocolError(
                    "server closed the connection (after retry)") from None
        if not response.get("ok"):
            raise reply_error(response)
        head = response.get("head_lsn")
        if isinstance(head, int) and head > self.session_lsn:
            self.session_lsn = head
        return response

    # -- convenience wrappers ------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def info(self) -> Dict[str, Any]:
        return self.request("info")

    def query(self, text: str, timeout: Optional[float] = None,
              limit: Optional[int] = None,
              profile: bool = False,
              min_lsn: Optional[int] = None,
              wait_s: Optional[float] = None) -> Dict[str, Any]:
        if min_lsn is None and self.session_lsn:
            min_lsn = self.session_lsn
        return self.request("query", query=text, timeout=timeout,
                            limit=limit, profile=profile or None,
                            min_lsn=min_lsn or None, wait_s=wait_s)

    def prepare(self, name: str, text: str,
                params: Optional[List[str]] = None) -> Dict[str, Any]:
        return self.request("prepare", name=name, query=text, params=params)

    def execute(self, name: str, params: Optional[Dict[str, Any]] = None,
                timeout: Optional[float] = None,
                min_lsn: Optional[int] = None) -> Dict[str, Any]:
        if min_lsn is None and self.session_lsn:
            min_lsn = self.session_lsn
        return self.request("execute", name=name, params=params or {},
                            timeout=timeout, min_lsn=min_lsn or None)

    def insert_entity(self, oid: str, **attributes: Any) -> Dict[str, Any]:
        return self.request("insert_entity", oid=oid, attributes=attributes)

    def insert_interval(self, oid: str, entities=(), duration=None,
                        **attributes: Any) -> Dict[str, Any]:
        return self.request("insert_interval", oid=oid,
                            entities=list(entities), duration=duration,
                            attributes=attributes)

    def relate(self, relation: str, *args: Any) -> Dict[str, Any]:
        return self.request("relate", relation=relation, args=list(args))

    def declare_relation(self, name: str) -> Dict[str, Any]:
        return self.request("declare_relation", name=name)

    def batch(self, ops: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Apply mutation sub-ops atomically in one transaction (one
        commit, one standing-query notification round; all-or-nothing)."""
        return self.request("batch", ops=list(ops))

    def subscribe(self, query: str,
                  filter: Optional[Dict[str, Any]] = None,
                  max_queue: Optional[int] = None,
                  detach: bool = False) -> Dict[str, Any]:
        """Register a standing query; returns its ``id`` and answer
        ``variables``.  Non-detached subscriptions close with this
        connection."""
        return self.request("subscribe", query=query, filter=filter,
                            max_queue=max_queue, detach=detach or None)

    def unsubscribe(self, sub_id: str) -> bool:
        return bool(self.request("unsubscribe", id=sub_id).get("removed"))

    def poll(self, sub_id: str, wait_s: Optional[float] = None,
             max_batches: Optional[int] = None) -> Dict[str, Any]:
        """Drain queued notification batches (oldest first), blocking
        up to ``wait_s`` when the queue is empty."""
        return self.request("poll", id=sub_id, wait_s=wait_s,
                            max_batches=max_batches)

    def subscriptions(self) -> List[Dict[str, Any]]:
        """Status rows of the server's live standing queries."""
        reply = self.request("subscriptions")
        return list(reply.get("subscriptions", []))

    def listen(self, sub_id: str):
        """Switch this connection to push mode; yields each batch as it
        arrives until the subscription closes or the server goes away.
        The connection serves nothing else afterwards — use a dedicated
        client for listening."""
        self.request("listen", id=sub_id)
        while True:
            with self._lock:
                payload = self._conn.read()
            if payload is None or payload.get("closed"):
                return
            yield payload

    def lint(self, text: str) -> Dict[str, Any]:
        """Statically analyze a rule/query document server-side.

        Returns ``diagnostics`` (list of structured findings), a human
        ``summary`` and ``ok_to_load`` (no errors)."""
        return self.request("lint", text=text)

    def metrics(self) -> Dict[str, Any]:
        return self.request("metrics")["metrics"]

    def trace(self, limit: Optional[int] = None,
              id: Optional[str] = None) -> Dict[str, Any]:
        """Without ``id``: service metrics plus summaries of recently
        executed queries.  With ``id``: the flight-recorder segments of
        that distributed trace (the router fans this out fleet-wide)."""
        return self.request("trace", limit=limit, id=id)

    def traces(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Most-recent-first flight-recorder segment summaries."""
        reply = self.request("traces", limit=limit)
        return list(reply.get("traces", []))

    def cluster_health(self) -> Dict[str, Any]:
        """The router's fleet summary (per-node rows + rollups)."""
        return self.request("cluster_health")

    def events(self, limit: Optional[int] = None,
               type: Optional[str] = None) -> List[Dict[str, Any]]:
        """Most-recent-first structured events (slow queries, admission
        rejections, checkpoints, ...), optionally filtered by type."""
        reply = self.request("events", limit=limit, type=type)
        return list(reply.get("events", []))

    def wal(self, after: int = 0,
            limit: Optional[int] = None) -> Dict[str, Any]:
        """Ship WAL records after LSN *after* (replica pull).  Against
        a serving replica this instead reports its replication position
        (``applied_lsn`` / ``lag_lsn``)."""
        return self.request("wal", after=after, limit=limit)

    def promote(self, data_dir: Optional[str] = None) -> Dict[str, Any]:
        """Ask a serving replica to take over as primary (failover)."""
        return self.request("promote", data_dir=data_dir)

    def close(self) -> None:
        try:
            with self._lock:
                self._conn.send({"op": "close"})
        except OSError:
            pass
        self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
