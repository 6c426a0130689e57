"""The cluster's front door: one address, primary + replica fan-out.

:class:`ClusterRouter` speaks the same JSON-lines protocol as
:class:`~vidb.service.server.VideoServer` — on both sides it frames
messages with :mod:`vidb.service.wire`, the same request-size bound and
error kinds included — so every existing client —
``vidb client``, ``vidb top``, :class:`ServiceClient` — can point at
the router instead of a single server and transparently gain read
scaling:

* **Writes, transactions, session state** (inserts, ``relate``,
  ``prepare``/``execute``, ``wal`` shipping) forward to the primary
  over a per-client-connection backend connection, preserving the
  per-connection session semantics (prepared queries live where they
  were prepared).
* **Stateless reads** (``query``, ``lint``) round-robin across healthy
  replicas.  Health is probed in the background: the replica's ``wal``
  op reports ``applied_lsn``/``lag_lsn`` (replicas above
  ``max_lag_lsn`` stop taking reads), and an optional ``/readyz`` URL
  per replica gates on the exporter's readiness checks.
* **Session consistency** passes through untouched: the client's
  ``min_lsn`` token rides inside the forwarded request, and a replica
  that cannot reach the token within its bounded wait answers with a
  ``lagging`` error — the router then *re-serves that read from the
  primary* instead of surfacing the error.
* **Failure handling**: a transport error against a replica marks it
  down (the prober brings it back), and the read moves to the next
  healthy replica, then to the primary.  A dead primary surfaces as a
  ``cluster`` error until ``vidb promote`` repoints the router via the
  ``repoint`` op.

Router-specific ops::

    {"op": "cluster"}                      topology + health + counters
    {"op": "cluster_health"}               fleet summary: nodes + rollups
    {"op": "traces"}                       fleet-wide trace summaries
    {"op": "trace", "id": "<trace_id>"}    fan-out segment fetch
    {"op": "repoint", "host": H, "port": P}   new primary after failover

Observability (see docs/OBSERVABILITY.md): the router participates in
distributed tracing — a request carrying a sampled traceparent header
gets a router *segment* (``router.<op>`` wrapping a ``router.forward``
span per backend attempt) recorded into the router's own flight
recorder, and the forwarded request carries the router segment's
context so the backend's spans nest under it.  A background scrape
loop collects every member's ``metrics`` snapshot into a
:class:`~vidb.obs.fleet.FleetAggregator`; ``vidb router
--metrics-port`` serves the federated per-node exposition next to the
router's own counters, and ``cluster_health`` summarizes the fleet for
``vidb top --cluster``.
"""

from __future__ import annotations

import threading
import time
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

from vidb.errors import ClusterError, ProtocolError
from vidb.obs.events import EventLog, get_event_log
from vidb.obs.fleet import FleetAggregator, render_fleet_exposition
from vidb.obs.metrics import MetricsRegistry
from vidb.obs.trace import FlightRecorder, parse_traceparent
from vidb.obs.tracer import Tracer, current_tracer
from vidb.service.wire import (Connection, KeepOpen, LineHandler, LineServer,
                               call_once)

#: Ops the router load-balances across replicas: stateless reads whose
#: answer depends only on committed data (plus the client's LSN token).
#: Everything else — writes, per-connection session state, log shipping,
#: introspection of *the primary* — goes to the primary connection.
REPLICA_OPS = frozenset({"query", "lint"})


class ReplicaState:
    """Shared health/lag bookkeeping for one replica (prober writes,
    request handlers read; all under the router's state lock)."""

    def __init__(self, address: Tuple[str, int]):
        self.address = address
        self.healthy = False   # pessimistic until the first probe
        self.probed = False
        self.applied_lsn = 0
        self.lag_lsn = 0
        self.last_error: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {"address": f"{self.address[0]}:{self.address[1]}",
                "healthy": self.healthy,
                "applied_lsn": self.applied_lsn,
                "lag_lsn": self.lag_lsn,
                "last_error": self.last_error}


class _RouterHandler(LineHandler):
    """One client connection: lazy backend connections, verbatim
    forwarding, replica fallback."""

    def setup(self) -> None:
        super().setup()
        self.router: ClusterRouter = self.owner
        self._backends: Dict[Tuple[str, int], Connection] = {}
        self._version = self.router.primary_version

    def finish(self) -> None:
        self.close_backends()
        super().finish()

    def close_backends(self) -> None:
        for conn in self._backends.values():
            conn.close()
        self._backends.clear()

    def dispatch(self, request: Dict[str, Any]
                 ) -> Tuple[Dict[str, Any], KeepOpen]:
        return self.router.route(self, request), request.get("op") != "close"

    # Deliberately raw :class:`Connection` objects, not ServiceClients:
    # the router forwards replies verbatim (errors included), so it must
    # not decode error kinds into exceptions or track session tokens.
    def backend(self, address: Tuple[str, int]) -> Connection:
        """This client's connection to *address*, opened lazily."""
        version = self.router.primary_version
        if version != self._version:
            # The router was repointed (failover): connections opened
            # before may reach the old generation — start afresh.
            self.close_backends()
            self._version = version
        conn = self._backends.get(address)
        if conn is None:
            conn = Connection(address, self.router.request_timeout)
            self._backends[address] = conn
        return conn

    def drop(self, address: Tuple[str, int]) -> None:
        conn = self._backends.pop(address, None)
        if conn is not None:
            conn.close()


class ClusterRouter:
    """Route one protocol endpoint across a primary and its replicas."""

    def __init__(self, primary: Tuple[str, int],
                 replicas: Optional[List[Tuple[str, int]]] = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 probe_interval_s: float = 0.5,
                 max_lag_lsn: Optional[int] = None,
                 readyz_urls: Optional[Dict[Tuple[str, int], str]] = None,
                 connect_timeout: float = 5.0,
                 request_timeout: float = 30.0,
                 metrics: Optional[MetricsRegistry] = None,
                 event_log: Optional[EventLog] = None,
                 trace_capacity: int = 256,
                 scrape_interval_s: float = 2.0):
        self.primary = (primary[0], int(primary[1]))
        #: Bumped on :meth:`repoint`; client handlers compare it to know
        #: their cached backend connections predate a failover.
        self.primary_version = 0
        self.request_timeout = request_timeout
        self.connect_timeout = connect_timeout
        self.probe_interval_s = max(0.05, probe_interval_s)
        #: Replicas lagging more than this many LSNs stop taking reads
        #: (None = any lag is acceptable; the LSN-token wait still
        #: guarantees read-your-writes).
        self.max_lag_lsn = max_lag_lsn
        self.readyz_urls = dict(readyz_urls or {})
        self.events = event_log if event_log is not None else get_event_log()
        self.metrics = metrics or MetricsRegistry()
        self._reads = self.metrics.counter_family("router_reads_total",
                                                  ("replica",))
        for name in ("router.requests", "router.reads_balanced",
                     "router.fallbacks", "router.replica_errors",
                     "router.primary_errors"):
            self.metrics.counter(name)
        #: Router-side trace segments (see :mod:`vidb.obs.trace`).  The
        #: router never samples on its own: it records a segment only for
        #: a request whose traceparent header the client marked sampled.
        self.flight_recorder = FlightRecorder(capacity=trace_capacity)
        #: Federated member telemetry, fed by the scrape loop.
        self.fleet = FleetAggregator()
        self.scrape_interval_s = max(0.25, scrape_interval_s)
        self._state_lock = threading.Lock()
        self._replicas: List[ReplicaState] = [
            ReplicaState((h, int(p))) for h, p in (replicas or [])]
        self._rr = 0
        self._server = LineServer((host, port), _RouterHandler, self)
        self._stop = threading.Event()
        self._prober: Optional[threading.Thread] = None
        self._scraper: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return self._server.address

    def start(self) -> "ClusterRouter":
        self.probe()  # synchronous first pass: start with a real view
        self.scrape()  # ...and a populated fleet view from birth
        self._prober = threading.Thread(target=self._probe_loop,
                                        name="vidb-router-probe", daemon=True)
        self._prober.start()
        self._scraper = threading.Thread(target=self._scrape_loop,
                                         name="vidb-router-scrape",
                                         daemon=True)
        self._scraper.start()
        self._server.start_background("vidb-router")
        return self

    def close(self) -> None:
        self._stop.set()
        self._server.stop()
        if self._prober is not None:
            self._prober.join(timeout=5)
            self._prober = None
        if self._scraper is not None:
            self._scraper.join(timeout=5)
            self._scraper = None
        self.flight_recorder.close()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- health probing ------------------------------------------------------
    def _probe_loop(self) -> None:
        while not self._stop.wait(self.probe_interval_s):
            self.probe()

    def probe(self) -> None:
        """One health pass over every replica (and the readyz gates)."""
        for state in self._replicas:
            self._probe_one(state)

    def _probe_one(self, state: ReplicaState) -> None:
        healthy, error = True, None
        applied = lag = None
        try:
            reply = call_once(state.address, {"op": "wal"},
                              self.connect_timeout)
            if not reply.get("ok"):
                healthy, error = False, str(reply.get("message"))
            else:
                applied = int(reply.get("applied_lsn",
                                        reply.get("last_lsn", 0)))
                lag = int(reply.get("lag_lsn", 0))
                if (self.max_lag_lsn is not None
                        and lag > self.max_lag_lsn):
                    healthy, error = False, f"lagging {lag} LSNs"
        except (OSError, ValueError, ProtocolError) as exc:
            healthy, error = False, str(exc)
        if healthy and state.address in self.readyz_urls:
            try:
                with urllib.request.urlopen(
                        self.readyz_urls[state.address],
                        timeout=self.connect_timeout) as response:
                    if response.status != 200:
                        healthy, error = False, f"/readyz {response.status}"
            except OSError as exc:
                healthy, error = False, f"/readyz: {exc}"
        with self._state_lock:
            was_healthy, was_probed = state.healthy, state.probed
            state.healthy, state.probed = healthy, True
            state.last_error = error
            if applied is not None:
                state.applied_lsn = applied
            if lag is not None:
                state.lag_lsn = lag
        if healthy and (not was_healthy or not was_probed):
            self.events.emit("router.replica_up",
                             replica=f"{state.address[0]}:{state.address[1]}")
        elif not healthy and (was_healthy or not was_probed):
            self.events.emit("router.replica_down",
                             replica=f"{state.address[0]}:{state.address[1]}",
                             error=error)

    def mark_down(self, address: Tuple[str, int], error: str) -> None:
        with self._state_lock:
            for state in self._replicas:
                if state.address == address and state.healthy:
                    state.healthy = False
                    state.last_error = error
                    break
            else:
                return
        self.events.emit("router.replica_down",
                         replica=f"{address[0]}:{address[1]}", error=error)

    def healthy_replicas(self) -> List[ReplicaState]:
        with self._state_lock:
            return [s for s in self._replicas if s.healthy]

    def _next_replicas(self) -> List[ReplicaState]:
        """Healthy replicas in round-robin order (rotating start)."""
        with self._state_lock:
            healthy = [s for s in self._replicas if s.healthy]
            if not healthy:
                return []
            start = self._rr % len(healthy)
            self._rr += 1
            return healthy[start:] + healthy[:start]

    # -- routing -------------------------------------------------------------
    def route(self, handler: _RouterHandler,
              request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        self.metrics.inc("router.requests")
        if op == "cluster":
            return self.topology()
        if op == "cluster_health":
            return self.cluster_health()
        if op == "traces":
            limit = request.get("limit")
            return self.cluster_traces(limit if isinstance(limit, int) else 20)
        if op == "trace" and isinstance(request.get("id"), str):
            return self.cluster_trace(request["id"])
        if op == "repoint":
            host = request.get("host")
            port = request.get("port")
            if not isinstance(host, str) or not isinstance(port, int):
                raise ProtocolError(
                    "repoint needs string 'host' and integer 'port'")
            self.repoint((host, port))
            return {"ok": True, "primary": f"{host}:{port}"}
        if op == "close":
            return {"ok": True, "closing": True}
        return self._traced_route(handler, request, op)

    def _traced_route(self, handler: _RouterHandler, request: Dict[str, Any],
                      op: Any) -> Dict[str, Any]:
        """Forward ``request``, recording a router trace segment when the
        request carries a sampled traceparent header.

        The forwarded copy carries the *router segment's* header (not a
        further child), so the backend's segment parents to the router
        and the assembled tree reads client → router → backend.
        """
        header = request.get("trace")
        parent = parse_traceparent(header) if isinstance(header, str) else None
        if parent is None or not parent.sampled:
            return self._forward_op(handler, request, op)
        context = parent.child()
        request = dict(request)
        request["trace"] = context.to_header()
        tracer = Tracer()
        status: str = "ok"
        error_text: Optional[str] = None
        started_at = time.time()
        began = time.perf_counter()
        try:
            with tracer.activate():
                with tracer.span(f"router.{op}", op=str(op)):
                    response = self._forward_op(handler, request, op)
        except Exception as error:
            status, error_text = "error", str(error)
            raise
        finally:
            self.flight_recorder.record(
                context, root=tracer.root(), node=self.node_identity(),
                op=str(op), parent_span_id=parent.span_id, status=status,
                error=error_text, started_at=started_at,
                duration_s=time.perf_counter() - began)
        response.setdefault("trace", context.to_header())
        return response

    def _forward_op(self, handler: _RouterHandler, request: Dict[str, Any],
                    op: Any) -> Dict[str, Any]:
        if op in REPLICA_OPS:
            return self._route_read(handler, request)
        return self._route_primary(handler, request)

    def _route_primary(self, handler: _RouterHandler,
                       request: Dict[str, Any]) -> Dict[str, Any]:
        address = self.primary
        host, port = address
        with current_tracer().span("router.forward",
                                   backend=f"{host}:{port}",
                                   role="primary") as span:
            try:
                response = handler.backend(address).call(request)
            except (OSError, ProtocolError) as error:
                handler.drop(address)
                self.metrics.inc("router.primary_errors")
                span.annotate(outcome="transport_error")
                raise ClusterError(
                    f"primary {host}:{port} unreachable ({error}); "
                    f"promote a replica and repoint the router") from None
            span.annotate(outcome="served")
            return response

    def _route_read(self, handler: _RouterHandler,
                    request: Dict[str, Any]) -> Dict[str, Any]:
        tracer = current_tracer()
        for state in self._next_replicas():
            address = state.address
            backend = f"{address[0]}:{address[1]}"
            with tracer.span("router.forward", backend=backend,
                             role="replica") as span:
                try:
                    response = handler.backend(address).call(request)
                except (OSError, ProtocolError) as error:
                    handler.drop(address)
                    self.mark_down(address, str(error))
                    self.metrics.inc("router.replica_errors")
                    span.annotate(outcome="transport_error")
                    continue
                if (not response.get("ok")
                        and response.get("error") in ("lagging", "read_only")):
                    # The replica cannot serve this read consistently (the
                    # client's LSN token outran it); the primary always can.
                    self.metrics.inc("router.fallbacks")
                    span.annotate(outcome=str(response.get("error")))
                    break
                span.annotate(outcome="served")
            self.metrics.inc("router.reads_balanced")
            self._reads.labels(replica=backend).inc()
            return response
        else:
            if self._replicas:
                self.metrics.inc("router.fallbacks")
        response = self._route_primary(handler, request)
        self._reads.labels(replica="primary").inc()
        return response

    # -- fleet telemetry -----------------------------------------------------
    def node_identity(self) -> Dict[str, Any]:
        host, port = self.address
        return {"role": "router", "host": host, "port": port}

    def _members(self) -> List[Tuple[str, Tuple[str, int]]]:
        """``(role, address)`` for every cluster member, primary first."""
        with self._state_lock:
            members = [("primary", self.primary)]
            members.extend(("replica", s.address) for s in self._replicas)
        return members

    def _scrape_loop(self) -> None:
        while not self._stop.wait(self.scrape_interval_s):
            self.scrape()

    def scrape(self) -> None:
        """One telemetry pass: pull every member's metrics snapshot into
        the fleet aggregator (failures keep the last good snapshot and
        mark the node down)."""
        for role, address in self._members():
            name = f"{address[0]}:{address[1]}"
            try:
                reply = call_once(address, {"op": "metrics"},
                                  self.connect_timeout)
            except (OSError, ProtocolError) as error:
                self.fleet.mark_failed(name, role, str(error))
                continue
            snapshot = reply.get("metrics")
            if reply.get("ok") and isinstance(snapshot, dict):
                self.fleet.update(name, role, snapshot)
            else:
                self.fleet.mark_failed(
                    name, role, str(reply.get("message", "bad metrics reply")))

    def fleet_exposition(self) -> str:
        """The federated per-node Prometheus text (appended to the
        router's own exposition by ``vidb router --metrics-port``)."""
        return render_fleet_exposition(self.fleet)

    def cluster_health(self) -> Dict[str, Any]:
        """Fleet summary: per-node rows + cluster rollups + topology."""
        health = self.fleet.health()
        with self._state_lock:
            primary = self.primary
            replicas = [s.as_dict() for s in self._replicas]
        host, port = self.address
        return {"ok": True,
                "router": f"{host}:{port}",
                "primary": f"{primary[0]}:{primary[1]}",
                "replicas": replicas,
                "nodes": health["nodes"],
                "rollups": health["rollups"],
                "time": health["time"]}

    # -- trace fan-out -------------------------------------------------------
    def _fanout(self, request: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Forward ``request`` to every member over one-shot connections,
        collecting the ``ok`` replies (unreachable members are skipped —
        a killed primary must not break trace assembly)."""
        replies = []
        for _role, address in self._members():
            try:
                reply = call_once(address, request, self.connect_timeout)
            except (OSError, ProtocolError):
                continue
            if reply.get("ok"):
                replies.append(reply)
        return replies

    def cluster_trace(self, trace_id: str) -> Dict[str, Any]:
        """Assemble one trace's segments from the whole fleet: the
        router's own flight recorder plus every reachable member's."""
        segments = self.flight_recorder.get(trace_id)
        for reply in self._fanout({"op": "trace", "id": trace_id}):
            segments.extend(reply.get("segments") or ())
        return {"ok": True, "id": trace_id, "segments": segments}

    def cluster_traces(self, limit: int = 20) -> Dict[str, Any]:
        """Most-recent trace summaries across the fleet, merged by
        trace_id (one row per trace, earliest segment's summary wins)."""
        limit = max(1, limit)
        rows = self.flight_recorder.summaries(limit)
        for reply in self._fanout({"op": "traces", "limit": limit}):
            rows.extend(reply.get("traces") or ())
        merged: Dict[str, Dict[str, Any]] = {}
        for row in rows:
            trace_id = row.get("trace_id")
            if not isinstance(trace_id, str):
                continue
            kept = merged.get(trace_id)
            if kept is None or row.get("started_at", 0) < kept.get(
                    "started_at", 0):
                merged[trace_id] = row
        ordered = sorted(merged.values(),
                         key=lambda r: r.get("started_at", 0), reverse=True)
        return {"ok": True, "traces": ordered[:limit]}

    # -- failover ------------------------------------------------------------
    def repoint(self, primary: Tuple[str, int]) -> None:
        """Point writes at a newly promoted primary.

        Also drops the new primary from the read pool if it was one of
        the replicas, and wakes every client handler's cached primary
        connection via the version bump.
        """
        new = (primary[0], int(primary[1]))
        with self._state_lock:
            old = self.primary
            self.primary = new
            self.primary_version += 1
            self._replicas = [s for s in self._replicas if s.address != new]
        self.events.emit("failover.repoint",
                         old_primary=f"{old[0]}:{old[1]}",
                         new_primary=f"{new[0]}:{new[1]}")

    def add_replica(self, address: Tuple[str, int],
                    readyz_url: Optional[str] = None) -> None:
        """Add a replica to the read pool (it joins after its first
        successful probe)."""
        addr = (address[0], int(address[1]))
        with self._state_lock:
            if any(s.address == addr for s in self._replicas):
                return
            self._replicas.append(ReplicaState(addr))
        if readyz_url is not None:
            self.readyz_urls[addr] = readyz_url

    # -- introspection -------------------------------------------------------
    def topology(self) -> Dict[str, Any]:
        with self._state_lock:
            replicas = [s.as_dict() for s in self._replicas]
            primary = self.primary
        return {"ok": True,
                "primary": f"{primary[0]}:{primary[1]}",
                "replicas": replicas,
                "metrics": self.metrics.snapshot(),
                "time": time.time()}

    def __repr__(self) -> str:
        host, port = self.address
        healthy = len(self.healthy_replicas())
        with self._state_lock:
            total = len(self._replicas)
        return (f"ClusterRouter({host}:{port}, "
                f"primary={self.primary[0]}:{self.primary[1]}, "
                f"replicas={healthy}/{total} healthy)")
