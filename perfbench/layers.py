"""Per-layer probes for the traced run.

Two sources, and the program gets no new instrumentation for either:

* **calls into each layer's public functions**, timed by the benchmark
  in this process on the workload's own inputs — ``parse_query``,
  ``normalize_query``, ``ServiceExecutor.execute_report`` (its
  ``ExecutionReport.stats``), ``kernel.counters()``,
  ``ServiceExecutor.mutate`` and ``DurableDatabase.checkpoint()`` /
  ``stats()``;
* **counters the live nodes already export** through the ``metrics``,
  ``subscriptions`` and router ``cluster`` ops, read before and after
  the traced phase.

Every call is recorded as a span (see :mod:`spans`).  ``LAYER_METRICS``
lists each per-layer metric with its unit and the end-to-end metric it
should move; ``BENCHMARK.json`` is checked against it by the smoke tests.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from nodes import Node, WireClient, metrics, wait_ready
from spans import SpanLog
from workloads import IngestStanding, router_metrics

from vidb.constraints.kernel import default_kernel_name, make_kernel
from vidb.durability import DurableDatabase
from vidb.durability.snapshot import list_snapshots
from vidb.query.engine import QueryEngine
from vidb.query.parser import parse_query
from vidb.query.render import normalize_query
from vidb.service.executor import ServiceExecutor
from vidb.storage.database import VideoDatabase
from vidb.storage.persistence import load
from vidb.stream.ingest import apply_record

#: (name, unit, better, which end-to-end metric it should move, where).
LAYER_METRICS: List[Tuple[str, str, str, str]] = [
    ("wire.ping_rtt_ms", "ms", "lower",
     "latency_p50_ms on hot_reads and routed_reads"),
    ("wire.reply_bytes", "bytes", "lower",
     "latency_p50_ms on hot_reads and routed_reads"),
    ("wire.codec_ms", "ms", "lower",
     "latency_p50_ms on hot_reads and routed_reads"),
    ("executor.hit_ms", "ms", "lower",
     "latency_p50_ms and ops_per_s on hot_reads"),
    ("cache.hit_ratio", "ratio", "higher",
     "latency_p50_ms and ops_per_s on hot_reads"),
    ("cache.evictions", "count", "lower",
     "latency_p50_ms and ops_per_s on hot_reads"),
    ("executor.queue_wait_ms", "ms", "lower",
     "latency_p95_ms on cold_queries"),
    ("executor.rejected", "count", "lower", "ops_per_s on every workload"),
    ("executor.timeouts", "count", "lower", "ops_per_s on every workload"),
    ("query.parse_ms", "ms", "lower", "latency_p50_ms on hot_reads"),
    ("query.normalize_ms", "ms", "lower", "latency_p50_ms on hot_reads"),
    ("query.analyze_ms", "ms", "lower",
     "latency_p50_ms and latency_p95_ms on cold_queries"),
    ("query.evaluate_ms", "ms", "lower",
     "latency_p50_ms and latency_p95_ms on cold_queries"),
    ("query.collect_ms", "ms", "lower",
     "latency_p50_ms and latency_p95_ms on cold_queries"),
    ("fixpoint.iterations", "count", "lower",
     "latency_p50_ms on cold_queries"),
    ("fixpoint.rule_firings", "count", "lower",
     "latency_p50_ms on cold_queries"),
    ("fixpoint.constraint_checks", "count", "lower",
     "latency_p50_ms on cold_queries"),
    ("fixpoint.checks_per_row", "ratio", "lower",
     "latency_p50_ms on cold_queries"),
    ("fixpoint.contains_rule_ms", "ms", "lower",
     "latency_p50_ms on cold_queries"),
    ("kernel.entails_calls", "count", "lower",
     "latency_p50_ms on cold_queries"),
    ("kernel.entails_hit_ratio", "ratio", "higher",
     "latency_p50_ms on cold_queries"),
    ("kernel.sat_calls", "count", "lower", "latency_p50_ms on cold_queries"),
    ("kernel.canon_hit_ratio", "ratio", "higher",
     "latency_p50_ms on cold_queries"),
    ("durability.mutate_ms", "ms", "lower",
     "ops_per_s and latency_p50_ms on ingest_standing"),
    ("durability.wal_bytes_per_record", "bytes", "lower",
     "ops_per_s on ingest_standing"),
    ("durability.wal_syncs", "count", "lower", "ops_per_s on ingest_standing"),
    ("durability.checkpoints", "count", "lower",
     "latency_p95_ms on ingest_standing"),
    ("durability.checkpoint_ms", "ms", "lower",
     "latency_p95_ms on ingest_standing"),
    ("durability.snapshot_bytes", "bytes", "lower",
     "latency_p95_ms on ingest_standing"),
    ("stream.feed_ms", "ms", "lower",
     "ops_per_s and notify_p50_ms on ingest_standing"),
    ("stream.notifications", "count", "lower",
     "notify_p95_ms on ingest_standing"),
    ("stream.notified_rows", "count", "lower",
     "notify_p95_ms on ingest_standing"),
    ("stream.queue_depth_max", "count", "lower",
     "notify_p95_ms on ingest_standing"),
    ("stream.dropped_batches", "count", "lower",
     "notify_p95_ms on ingest_standing"),
    ("stream.lag_events", "count", "lower",
     "notify_p95_ms on ingest_standing"),
    ("router.hop_ms", "ms", "lower", "latency_p50_ms on routed_reads"),
    ("router.replica_read_ratio", "ratio", "higher",
     "latency_p50_ms on routed_reads"),
    ("replica.lag_lsn", "count", "lower", "latency_p50_ms on routed_reads"),
    ("server.cpu_ms_per_op", "ms", "lower", "ops_per_s on every workload"),
    ("client.cpu_ms_per_op", "ms", "lower",
     "none: the load generator's own cost"),
    ("latency_p99_ms", "ms", "lower", "none: tail diagnostic"),
    ("latency_max_ms", "ms", "lower", "none: tail diagnostic"),
    ("trace.overhead_frac", "ratio", "lower",
     "none: the traced run's ops_per_s against the untraced phase's"),
]

PING_SAMPLES = 200
PARSE_REPEATS = 10
WRITE_PROBE_BATCHES = 40
#: Dump intervals behind the write probe: enough for its batches.
PROBE_INTERVALS = 400


def _timed(spans: SpanLog, request: int, parent: Optional[int], name: str,
           fn, *args):
    began = time.perf_counter()
    result = fn(*args)
    ended = time.perf_counter()
    spans.add(name, began, ended, request, parent)
    return result, (ended - began) * 1000.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- the query path, in process ----------------------------------------------
def query_layers(db: VideoDatabase, warm_texts: List[str],
                 texts: List[str], stdlib: bool,
                 spans: SpanLog) -> Dict[str, float]:
    """Parse, normalize and execute ``texts`` through a fresh
    ``ServiceExecutor`` whose kernel ``warm_texts`` warmed first, the
    way the live server's kernel is warm."""
    request = spans.new_request()
    parse_ms, normalize_ms = [], []
    for text in texts:
        for _ in range(PARSE_REPEATS):
            query, ms = _timed(spans, request, None, "query.parse",
                               parse_query, text)
            parse_ms.append(ms)
            _, ms = _timed(spans, request, None, "query.normalize",
                           normalize_query, query)
            normalize_ms.append(ms)
    kernel = make_kernel(default_kernel_name())
    options = {"kernel": kernel}
    with ServiceExecutor(db, use_stdlib_rules=stdlib, max_workers=1,
                         streaming=False, engine_options=options) as warm:
        for text in warm_texts:
            warm.execute_report(text)
    stages: Dict[str, List[float]] = {"analyze": [], "evaluate": [],
                                      "collect": []}
    waits, hits = [], []
    iterations = firings = checks = rows = 0
    before = kernel.counters()
    with ServiceExecutor(db, use_stdlib_rules=stdlib, max_workers=1,
                         streaming=False, engine_options=options) as service:
        for text in texts:
            began = time.perf_counter()
            report = service.execute_report(text)
            ended = time.perf_counter()
            root = spans.add("executor.execute_report", began, ended,
                             request)
            # The engine's own stage timings, laid end to end from the
            # start of evaluation, become the call's child spans.
            cursor = ended - report.stats.elapsed_s
            for stage, seconds in report.stats.stages.items():
                spans.add(f"query.{stage}", cursor, cursor + seconds,
                          request, root)
                cursor += seconds
            waits.append((ended - began - report.stats.elapsed_s) * 1000.0)
            for stage in stages:
                stages[stage].append(
                    report.stats.stages.get(stage, 0.0) * 1000.0)
            iterations += report.stats.iterations
            firings += report.stats.rule_firings
            checks += report.stats.constraint_checks
            rows += len(report.answers)
        after = kernel.counters()
        for text in texts:
            _, ms = _timed(spans, request, None, "executor.hit",
                           service.execute_report, text)
            hits.append(ms)
    delta = {key: after[key] - before.get(key, 0) for key in after}
    count = len(texts)
    entails = delta.get("entails.hits", 0) + delta.get("entails.misses", 0)
    canon = delta.get("canon.hits", 0) + delta.get("canon.misses", 0)
    return {
        "query.parse_ms": statistics.median(parse_ms),
        "query.normalize_ms": statistics.median(normalize_ms),
        "query.analyze_ms": statistics.mean(stages["analyze"]),
        "query.evaluate_ms": statistics.mean(stages["evaluate"]),
        "query.collect_ms": statistics.mean(stages["collect"]),
        "executor.queue_wait_ms": statistics.median(waits),
        "executor.hit_ms": statistics.median(hits),
        "fixpoint.iterations": iterations / count,
        "fixpoint.rule_firings": firings / count,
        "fixpoint.constraint_checks": checks / count,
        "fixpoint.checks_per_row": _ratio(checks, rows),
        "kernel.entails_calls": entails / count,
        "kernel.entails_hit_ratio": _ratio(delta.get("entails.hits", 0),
                                           entails),
        "kernel.sat_calls": (delta.get("sat.hits", 0)
                             + delta.get("sat.misses", 0)) / count,
        "kernel.canon_hit_ratio": _ratio(delta.get("canon.hits", 0), canon),
    }


def contains_rule_ms(db: VideoDatabase, spans: SpanLog) -> float:
    """Time the fixpoint spends in the paper's §6.2 ``contains`` rule."""
    request = spans.new_request()
    engine = QueryEngine(db, use_stdlib_rules=True)
    report, _ = _timed(spans, request, None, "query.execute",
                       engine.execute, "?- contains(G1, G2).")
    return report.stats.rules["contains"].seconds * 1000.0


# -- the write path, in process ----------------------------------------------
def write_layers(snapshot: Path, seed: int, workdir: Path,
                 spans: SpanLog) -> Dict[str, float]:
    """``ServiceExecutor.mutate`` per dump batch on a durable database
    with the ingest workload's standing queries and with none."""
    batches = IngestStanding.dump_batches(seed, PROBE_INTERVALS)
    subscriptions = IngestStanding.SUBSCRIPTIONS
    query = IngestStanding.QUERY
    per_batch: Dict[int, float] = {}
    for subs in (0, subscriptions):
        request = spans.new_request()
        where = workdir / f"write-probe-{subs}"
        durable = DurableDatabase(where, seed=load(snapshot),
                                  fsync="interval")
        try:
            with ServiceExecutor(durable, max_workers=1) as service:
                service.mutate(lambda db: db.declare_relation("appears"))
                for index in range(subs):
                    service.subscribe(query, detached=True,
                                      filter=IngestStanding.filter_of(index))
                times = []
                for batch in batches[:WRITE_PROBE_BATCHES]:
                    def apply(db, batch=batch):
                        for record in batch:
                            apply_record(db, record)
                    _, ms = _timed(spans, request, None,
                                   "durability.mutate", service.mutate,
                                   apply)
                    times.append(ms)
                per_batch[subs] = statistics.median(times)
        finally:
            durable.close()
    return {"durability.mutate_ms": per_batch[subscriptions],
            "stream.feed_ms": per_batch[subscriptions] - per_batch[0]}


def checkpoint_layers(durable: DurableDatabase,
                      spans: SpanLog) -> Dict[str, float]:
    """``DurableDatabase.checkpoint()`` at the run's end-of-run size."""
    request = spans.new_request()
    times = []
    for _ in range(3):
        _, ms = _timed(spans, request, None, "durability.checkpoint",
                       durable.checkpoint)
        times.append(ms)
    newest = list_snapshots(durable.data_dir)[-1][1]
    return {"durability.checkpoint_ms": statistics.median(times),
            "durability.snapshot_bytes": float(newest.stat().st_size)}


# -- the wire, live ----------------------------------------------------------
def ping_ms(address: Tuple[str, int], spans: SpanLog, name: str) -> float:
    client = WireClient(address)
    request = spans.new_request()
    samples = []
    try:
        for _ in range(PING_SAMPLES):
            began = time.perf_counter()
            client.send_line(b'{"op": "ping"}\n')
            ended = time.perf_counter()
            spans.add(name, began, ended, request)
            samples.append((ended - began) * 1000.0)
    finally:
        client.close()
    return statistics.median(samples)


def router_hop_ms(backend: Tuple[str, int], router: Optional[Tuple[str, int]],
                  workdir: Path, spans: SpanLog) -> float:
    """Routed ping minus direct ping of the node the router forwards
    pings to.  Without a router in the topology, one is started in
    front of ``backend`` for the measurement."""
    started: Optional[Node] = None
    if router is None:
        started = Node("probe-router", [
            "router", "--primary", "%s:%d" % backend, "--port", "0"],
            workdir)
        wait_ready(started.address)
        router = started.address
    try:
        routed = ping_ms(router, spans, "router.ping")
        direct = ping_ms(backend, spans, "wire.ping")
    finally:
        if started is not None:
            started.stop()
    return routed - direct


def codec_ms(lines: List[bytes], spans: SpanLog) -> float:
    """JSON loads + dumps of the reply payloads the traced phase saw."""
    request = spans.new_request()
    times = []
    for line in lines:
        began = time.perf_counter()
        json.dumps(json.loads(line))
        ended = time.perf_counter()
        spans.add("wire.codec", began, ended, request)
        times.append((ended - began) * 1000.0)
    return statistics.mean(times)


# -- exported counters, live -------------------------------------------------
def live_counters(workload) -> Dict[str, float]:
    """The counters the workload's nodes export, flattened to what the
    per-layer metrics need."""
    reader = metrics(workload.reader.address)
    primary = metrics(workload.nodes[0].address)
    client = WireClient(workload.nodes[0].address)
    try:
        subs = client.request("subscriptions")["subscriptions"]
    finally:
        client.close()
    out = {
        "cache.hits": reader.get("cache.hits", 0),
        "cache.misses": reader.get("cache.misses", 0),
        "cache.evictions": reader.get("cache.evictions", 0),
        "queries.rejected": reader.get("queries.rejected", 0),
        "queries.timeout": reader.get("queries.timeout", 0),
        "wal.bytes": primary.get("wal.bytes", 0),
        "wal.records": primary.get("wal.records", 0),
        "wal.syncs": primary.get("wal.syncs", 0),
        "snapshots.taken": primary.get("snapshots.taken", 0),
        "stream.notifications": primary.get("stream.notifications", 0),
        "stream.notified_rows": sum(
            value for key, value in primary.items()
            if key.startswith("stream_notified_rows_total")),
        "stream.lag_events": primary.get("stream.lag_events", 0),
        "stream.dropped_batches": sum(s["dropped_batches"] for s in subs),
        "stream.queue_depth_max": max(
            [s["queue_depth"] for s in subs] or [0]),
        "replica.lag_lsn": reader.get("replica.lag_lsn", 0),
        "router.reads_balanced": 0,
        "router.reads_primary": 0,
    }
    if workload.router is not None:
        routed = router_metrics(workload.router)
        out["router.reads_balanced"] = routed.get("router.reads_balanced", 0)
        out["router.reads_primary"] = routed.get(
            "router_reads_total{replica=primary}", 0)
    return out


def counter_metrics(before: Dict[str, float],
                    after: Dict[str, float]) -> Dict[str, float]:
    delta = {key: after[key] - before[key] for key in after}
    lookups = delta["cache.hits"] + delta["cache.misses"]
    routed = delta["router.reads_balanced"] + delta["router.reads_primary"]
    return {
        "cache.hit_ratio": _ratio(delta["cache.hits"], lookups),
        "cache.evictions": delta["cache.evictions"],
        "executor.rejected": delta["queries.rejected"],
        "executor.timeouts": delta["queries.timeout"],
        "durability.wal_bytes_per_record": _ratio(delta["wal.bytes"],
                                                  delta["wal.records"]),
        "durability.wal_syncs": delta["wal.syncs"],
        "durability.checkpoints": delta["snapshots.taken"],
        "stream.notifications": delta["stream.notifications"],
        "stream.notified_rows": delta["stream.notified_rows"],
        "stream.lag_events": delta["stream.lag_events"],
        "stream.dropped_batches": delta["stream.dropped_batches"],
        # Gauges: the state at the end of the phase, not a delta.
        "stream.queue_depth_max": after["stream.queue_depth_max"],
        "replica.lag_lsn": after["replica.lag_lsn"],
        "router.replica_read_ratio": _ratio(delta["router.reads_balanced"],
                                            routed),
    }
