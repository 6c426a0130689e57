"""Closed-loop request timing and failure accounting.

Every caller waits for its reply before sending the next request (a
closed loop), as ``vidb ingest`` and dashboards do.  A request that fails
for any reason (an error reply, ``overloaded``, a timeout, a dropped
connection) is counted as failed and enters every percentile as an
infinite latency.
"""

from __future__ import annotations

import json
import math
import time
from typing import Any, Dict, List, Optional, Sequence

from nodes import WireClient, encode
from spans import SpanLog

INF = math.inf
#: Raw replies a traced phase keeps per connection for the codec probe.
KEPT_REPLIES = 200


class Tally:
    """What one connection saw in one phase."""

    def __init__(self) -> None:
        self.latency_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.units = 0          # queries answered, or records applied
        self.reply_bytes = 0
        self.replies = 0
        #: Raw reply lines kept for the codec probe (traced phases only).
        self.kept: List[bytes] = []

    def merge(self, other: "Tally") -> "Tally":
        self.latency_ms += other.latency_ms
        self.attempted += other.attempted
        self.failed += other.failed
        self.units += other.units
        self.reply_bytes += other.reply_bytes
        self.replies += other.replies
        self.kept += other.kept
        return self


def timed_request(client: WireClient, payload: Dict[str, Any], tally: Tally,
                  spans: Optional[SpanLog] = None,
                  units: int = 1) -> Optional[Dict[str, Any]]:
    """Send one request and account for it; the decoded reply, or None
    when it failed."""
    tally.attempted += 1
    began = time.perf_counter()
    line = encode(payload)
    sent = time.perf_counter()
    try:
        raw = client.send_line(line)
    except OSError:
        tally.failed += 1
        tally.latency_ms.append(INF)
        client.reconnect()
        return None
    received = time.perf_counter()
    try:
        reply = json.loads(raw)
    except ValueError:
        reply = {}
    decoded = time.perf_counter()
    if spans is not None:
        request = spans.new_request()
        root = spans.add(f"client.{payload['op']}", began, decoded, request)
        spans.add("wire.encode", began, sent, request, root)
        spans.add("wire.roundtrip", sent, received, request, root)
        spans.add("wire.decode", received, decoded, request, root)
    tally.reply_bytes += len(raw)
    tally.replies += 1
    if spans is not None and len(tally.kept) < KEPT_REPLIES:
        tally.kept.append(raw)
    if not reply.get("ok"):
        tally.failed += 1
        tally.latency_ms.append(INF)
        return None
    tally.latency_ms.append((received - sent) * 1000.0)
    tally.units += units
    return reply


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
