"""In-memory spans for the traced run.

A span is one timed call the benchmark makes into a layer: its name
(``<layer>.<call>``), start and end (``time.perf_counter`` seconds),
the span that caused it, and the id of the request it belongs to, which
every span of that request shares.  Spans stay in memory while the run
measures and are written out once, at the end.

A layer's self time is its spans' time minus the part of each span that
its child spans cover; :meth:`SpanLog.self_time_ms` derives it per layer.
"""

from __future__ import annotations

import itertools
import json
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple


class SpanLog:
    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, Optional[int], str, float, float]] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()

    def new_request(self) -> int:
        with self._lock:
            return next(self._requests)

    def add(self, name: str, start: float, end: float,
            request: int, parent: Optional[int] = None) -> int:
        """Record one finished span; returns its id for children."""
        with self._lock:
            span_id = next(self._ids)
        # list.append is atomic; the tuple is (id, request, parent, ...).
        self.spans.append((span_id, request, parent, name, start, end))
        return span_id

    def self_time_ms(self) -> Dict[str, float]:
        """Total self time per layer (the span name's first segment)."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: Dict[str, float] = {}
        for span_id, _, _, name, start, end in self.spans:
            covered = 0.0
            reach = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                lo, hi = max(child_start, reach), min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (end - start - covered)
        return {layer: seconds * 1000.0 for layer, seconds in totals.items()}

    def write(self, path: Path, stamp: Dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "stamp": stamp,
            "self_time_ms": self.self_time_ms(),
            "spans": [{"id": s[0], "request": s[1], "parent": s[2],
                       "name": s[3], "start": s[4], "end": s[5]}
                      for s in self.spans],
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
