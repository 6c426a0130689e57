"""One benchmark run: set up, warm up, measure, check, report.

An untraced run (``trace=False``) reports the end-to-end metrics.  A
traced run does the same work in alternating untraced chunks and chunks
with spans around every client call, then probes each layer (see
:mod:`layers`) and reports the per-layer metrics, including the tracing
overhead between the two kinds of chunk.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
from loop import Tally, percentile
from nodes import ROOT
from spans import SpanLog
from workloads import WORKLOADS, IngestStanding, Workload, clear

from vidb.constraints.kernel import default_kernel_name
from vidb.durability import DurableDatabase
from vidb.storage.persistence import load

#: Where runs keep their node directories (removed after each run) and
#: the traced runs' span files.
OUT = ROOT / "perfbench" / "out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Which chunks of a traced run carry spans: untraced, traced, traced,
#: untraced, so drift over the run (the ingest workload's growing
#: database) weighs on both kinds alike.
TRACED_CHUNKS = (False, True, True, False)

#: (name, unit, better, bound).  Every bound is the contract's largest,
#: 0.25: on a shared 2-core box the same CPU-bound loop runs at speeds
#: whose 15-second means spread by about 0.17 (IQR over median), and
#: every metric here but memory is CPU-bound.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("notify_p50_ms", "ms", "lower", 0.25),
    ("notify_p95_ms", "ms", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("server_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
]


#: ``run_seconds`` in BENCHMARK.json: one run's length.
RUN_SECONDS = 15


def manifest() -> Dict[str, Any]:
    """BENCHMARK.json, built from the tables the runs report against."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": cls.name, "why": cls.why}
                      for cls in WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _ in layers.LAYER_METRICS],
    }


class Phase:
    """One timed phase: what the connections saw plus process costs."""

    def __init__(self, workload: Workload, seconds: float,
                 spans: Optional[SpanLog]):
        nodes = list(workload.nodes)
        server_cpu = sum(node.cpu_seconds() for node in nodes)
        client_cpu = time.process_time()
        began = time.perf_counter()
        out = workload.measure(seconds, spans)
        self.elapsed = time.perf_counter() - began
        self.client_cpu = time.process_time() - client_cpu
        self.server_cpu = sum(node.cpu_seconds() for node in nodes) - server_cpu
        self.rss_mb = sum(node.peak_rss_mb() for node in nodes)
        self.tally: Tally = out["tally"]
        self.reads: Tally = out.get("reads", self.tally)
        self.batches = out.get("batches")

    def merge(self, other: "Phase") -> "Phase":
        self.elapsed += other.elapsed
        self.client_cpu += other.client_cpu
        self.server_cpu += other.server_cpu
        self.rss_mb = max(self.rss_mb, other.rss_mb)
        self.tally.merge(other.tally)
        if self.reads is not self.tally:
            self.reads.merge(other.reads)
        return self

    @property
    def ops_per_s(self) -> float:
        return self.tally.units / self.elapsed

    def attempted(self) -> Tuple[int, int]:
        both = [self.tally] + ([self.reads] if self.reads is not self.tally
                               else [])
        return (sum(t.attempted for t in both), sum(t.failed for t in both))


def environment(workload: Workload, seed: int, seconds: float,
                trace: bool) -> Dict[str, Any]:
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": default_kernel_name(), **workload.stamp(),
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def run(name: str, seed: int, seconds: float, trace: bool
        ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One run; returns ``(result, stamp)``.  Raises
    :class:`workloads.CheckFailed` when an output check fails."""
    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    clear(workdir)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, workdir)
    try:
        setups = []
        for repeat in range(1 if trace else SETUP_REPEATS):
            if repeat:
                workload.stop()
            setups.append(workload.start())
        workload.warm()
        if trace:
            return traced(workload, seed, seconds, workdir)
        phase = Phase(workload, seconds, None)
        workload.check()
        stamp = environment(workload, seed, seconds, trace)
        return end_to_end(workload, phase, setups, stamp), stamp
    finally:
        workload.stop()
        clear(workdir)


def end_to_end(workload: Workload, phase: Phase, setups: List[float],
               stamp: Dict[str, Any]) -> Dict[str, Any]:
    latency = phase.tally.latency_ms
    reads = phase.reads.latency_ms
    if isinstance(workload, IngestStanding):
        notify = workload.notify_ms(phase.batches)
    else:
        # A reader's rows arrive with its own reply.
        notify = latency
    stamp["samples"] = {"latency": len(latency), "notify": len(notify),
                        "read": len(reads), "setup": len(setups)}
    values = {
        "ops_per_s": phase.ops_per_s,
        "latency_p50_ms": percentile(latency, 50),
        "latency_p95_ms": percentile(latency, 95),
        "notify_p50_ms": percentile(notify, 50),
        "notify_p95_ms": percentile(notify, 95),
        "read_p50_ms": percentile(reads, 50),
        "server_rss_mb": phase.rss_mb,
        "setup_s": statistics.median(setups),
    }
    attempted, failed = phase.attempted()
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {name: metric(values[name], unit)
                        for name, unit, _, _ in END_TO_END}}


def merged(phases: List[Phase]) -> Phase:
    for other in phases[1:]:
        phases[0].merge(other)
    return phases[0]


def end_state(workload: Workload, workdir: Path) -> DurableDatabase:
    """The database as the run left it, durable, for the checkpoint
    probe: the ingest primary's data directory recovered after the
    primary stops, else the seed (the read workloads write nothing)."""
    if isinstance(workload, IngestStanding):
        data_dir = workload.nodes[0].workdir / "data"
        workload.stop()
        return DurableDatabase(data_dir, fsync=workload.fsync)
    return DurableDatabase(workdir / "end-state", seed=load(workload.snapshot),
                           fsync="interval")


def traced(workload: Workload, seed: int, seconds: float, workdir: Path
           ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    spans = SpanLog()
    before = layers.live_counters(workload)
    chunks = [(Phase(workload, seconds / len(TRACED_CHUNKS),
                     spans if traced else None), traced)
              for traced in TRACED_CHUNKS]
    after = layers.live_counters(workload)
    plain, traced_phase = (merged([p for p, t in chunks if t is want])
                           for want in (False, True))
    workload.check()
    values: Dict[str, float] = layers.counter_metrics(before, after)
    tally = traced_phase.tally
    values.update({
        "wire.ping_rtt_ms": layers.ping_ms(workload.entry, spans,
                                           "wire.ping"),
        "wire.reply_bytes": tally.reply_bytes / tally.replies,
        "wire.codec_ms": layers.codec_ms(tally.kept, spans),
        "server.cpu_ms_per_op": traced_phase.server_cpu * 1000.0
        / tally.units,
        "client.cpu_ms_per_op": traced_phase.client_cpu * 1000.0
        / tally.units,
        "latency_p99_ms": percentile(plain.tally.latency_ms, 99),
        "latency_max_ms": max(plain.tally.latency_ms),
        "trace.overhead_frac": (plain.ops_per_s - traced_phase.ops_per_s)
        / plain.ops_per_s,
    })
    values["router.hop_ms"] = layers.router_hop_ms(
        workload.nodes[0].address, workload.router, workdir, spans)
    durable = end_state(workload, workdir)
    try:
        values.update(layers.checkpoint_layers(durable, spans))
        values.update(layers.query_layers(
            durable.db, workload.probe_queries(0), workload.probe_queries(1),
            stdlib="--stdlib" in workload.serve_flags, spans=spans))
    finally:
        durable.close()
    values["fixpoint.contains_rule_ms"] = layers.contains_rule_ms(
        load(workload.snapshot), spans)
    values.update(layers.write_layers(workload.snapshot, seed, workdir,
                                      spans))
    stamp = environment(workload, seed, seconds, True)
    stamp["samples"] = {"untraced": len(plain.tally.latency_ms),
                        "traced": len(tally.latency_ms),
                        "spans": len(spans.spans)}
    spans.write(OUT / "traces" / f"{workload.name}-seed{seed}.json", stamp)
    attempted, failed = plain.merge(traced_phase).attempted()
    units = {name: unit for name, unit, _, _ in layers.LAYER_METRICS}
    return ({"correct": True, "attempted": attempted, "failed": failed,
             "metrics": {name: metric(float(values[name]), unit)
                         for name, unit in units.items()}}, stamp)
