"""The four served workloads: inputs, node topology, timed loops, checks.

Each workload builds its inputs from the seed alone, starts its vidb
processes, warms them up, runs closed loops from at most two
connections on at most two threads, and checks the program's outputs
outside the timed requests.  A failed check raises :class:`CheckFailed`
and the run reports no numbers.

* ``hot_reads`` — Zipf-skewed requests over 48 fixed queries that all
  fit the 256-entry result cache: wire, codec, executor hop, cache
  lookup and answer rendering; the fixpoint stays idle.
* ``cold_queries`` — every request carries fresh constants, so every
  request misses: the fixpoint, the constraint kernel and the analyzer.
  It sends on one connection: the server evaluates queries under one
  interpreter lock, so a second connection only makes each latency
  depend on which query the other one happens to overlap.
* ``ingest_standing`` — a durable primary with 16 standing queries takes
  ``batch`` writes while a listener receives pushes; each batch is sent
  once the listener has the previous one's push, and every 10th is
  followed by a dashboard read: WAL, checkpoints, stream views and the
  write lock.
* ``routed_reads`` — ``hot_reads`` traffic through a router in front of
  a primary and one serving replica, each its own process.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from loop import Tally, timed_request
from nodes import BenchError, Node, WireClient, serve_args, wait_ready
from spans import SpanLog

from vidb.query.engine import QueryEngine
from vidb.storage.persistence import save
from vidb.stream.ingest import generate_dump, record_to_op
from vidb.workloads.generator import (
    ROLES,
    SUBJECTS,
    WorkloadConfig,
    random_database,
)

#: Database shape behind every workload.
DB_SHAPE = dict(entities=100, intervals=200, facts=200)
WARMUP_S = 1.0


class CheckFailed(BenchError):
    """The program's output did not match the expected answer."""


def answer_rows(answers) -> List[List[str]]:
    """Rows rendered the way the wire protocol renders them."""
    return [[str(value) for value in row] for row in answers.rows()]


def check_rows(label: str, expected: List[List[str]],
               got: List[List[str]]) -> None:
    if sorted(expected) != sorted(got):
        raise CheckFailed(
            f"{label}: {len(got)} row(s) differ from the in-process "
            f"reference ({len(expected)} row(s))")


class Workload:
    """Skeleton shared by the four workloads."""

    name = ""
    #: Flags every ``serve`` node of the workload gets.
    serve_flags: Tuple[str, ...] = ()
    #: WAL fsync policy of the workload's durable node, if it has one.
    fsync: Optional[str] = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.nodes: List[Node] = []
        self.db = random_database(WorkloadConfig(seed=seed, **DB_SHAPE))
        self.snapshot = workdir / "seed.json"
        save(self.db, self.snapshot)
        self._generation = 0

    # -- nodes ---------------------------------------------------------------
    def start(self) -> float:
        """Spawn the workload's nodes; seconds until they are ready."""
        self._generation += 1
        began = time.perf_counter()
        self.spawn(self.workdir / f"gen{self._generation}")
        return time.perf_counter() - began

    def spawn(self, where: Path) -> None:
        raise NotImplementedError

    def node(self, name: str, args: List[str], where: Path) -> Node:
        where.mkdir(parents=True, exist_ok=True)
        node = Node(name, args, where)
        self.nodes.append(node)
        wait_ready(node.address)
        return node

    def stop(self) -> None:
        while self.nodes:
            self.nodes.pop().stop()
        self.close_clients()

    def close_clients(self) -> None:
        pass

    @property
    def entry(self) -> Tuple[str, int]:
        """The address clients talk to."""
        return self.nodes[-1].address

    @property
    def reader(self) -> Node:
        """The node whose executor answers the reads."""
        return self.nodes[0]

    @property
    def router(self) -> Optional[Tuple[str, int]]:
        """The router's address, in a topology that has one."""
        return None

    # -- phases --------------------------------------------------------------
    def warm(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float,
                spans: Optional[SpanLog] = None) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self) -> None:
        """Post-run output checks (never on timed requests)."""

    def probe_queries(self, round: int) -> List[str]:
        """Query texts for the traced run's in-process layer probes;
        ``round`` 0 warms the probe's kernel, round 1 is measured."""
        raise NotImplementedError

    def stamp(self) -> Dict[str, Any]:
        return {"database": self.db.stats(), "fsync": self.fsync}


def run_connections(address: Tuple[str, int], count: int,
                    body: Callable[[int, WireClient], Tally]) -> Tally:
    """Run ``body(index, client)`` on ``count`` (1 or 2) connections, the
    first on this thread and the second on a helper thread; merge what
    they saw."""
    clients = [WireClient(address) for _ in range(count)]
    results: List[Tally] = []
    errors: List[BaseException] = []

    def second() -> None:
        try:
            results.append(body(1, clients[1]))
        except BaseException as error:  # re-raised on this thread below
            errors.append(error)

    helper = threading.Thread(target=second) if count > 1 else None
    if helper is not None:
        helper.start()
    try:
        total = body(0, clients[0])
    finally:
        if helper is not None:
            helper.join()
        for client in clients:
            client.close()
    if errors:
        raise errors[0]
    for other in results:
        total.merge(other)
    return total


class Budget:
    """The requests (or batches, or mix cycles) left in a phase, shared
    by its connections.  A run does a fixed amount of work, sized from
    its length at the workload's nominal rate (about what the seed code
    sustains on 2 cores), so every run of a workload does the same work
    and reports how fast it went."""

    def __init__(self, amount: float):
        self.left = max(1, round(amount))
        self._lock = threading.Lock()

    def take(self) -> bool:
        with self._lock:
            if self.left <= 0:
                return False
            self.left -= 1
            return True


# -- hot_reads ---------------------------------------------------------------
def hot_query_set() -> List[str]:
    """48 fixed parametrized queries, most popular first.  The large
    ``membership`` answer holds rank 1; entity ``e0`` is the generator's
    most popular entity, so popularity follows the data's own skew."""
    queries = ["?- interval(G), object(O), O in G.entities."]
    queries += [f"?- interval(G), e{k} in G.entities." for k in range(20)]
    queries += [f'?- interval(G), object(O), O in G.entities, '
                f'O.role = "{role}".' for role in ROLES]
    queries += [f'?- interval(G), G.subject = "{subject}".'
                for subject in SUBJECTS]
    queries += [f"?- object(O), O.salience = {s}." for s in range(1, 11)]
    queries += [f"?- interval(G), G.duration => "
                f"(t > {lo} and t < {lo + 2000})."
                for lo in range(0, 10000, 2000)]
    return queries


class HotReads(Workload):
    name = "hot_reads"
    why = ("Zipf reads over 48 queries that fit the result cache: cost on "
           "the wire, codec, executor hop and cache, fixpoint idle")
    ZIPF_S = 1.0
    CONNECTIONS = 2
    #: Requests per second of run length.
    RATE = 700

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.queries = hot_query_set()
        self.cum_weights = list(itertools.accumulate(
            1.0 / rank ** self.ZIPF_S
            for rank in range(1, len(self.queries) + 1)))
        engine = QueryEngine(self.db)
        self.reference = {text: answer_rows(engine.execute(text).answers)
                          for text in self.queries}

    def spawn(self, where: Path) -> None:
        self.node("server", serve_args(self.snapshot, *self.serve_flags),
                  where)

    def warm(self) -> None:
        client = WireClient(self.entry)
        try:
            for text in self.queries:
                reply = client.request("query", query=text)
                check_rows(text, self.reference[text], reply["rows"])
        finally:
            client.close()
        self._loop(WARMUP_S, None, salt=7)

    def measure(self, seconds: float,
                spans: Optional[SpanLog] = None) -> Dict[str, Any]:
        return {"tally": self._loop(seconds, spans, salt=0)}

    def _loop(self, seconds: float, spans: Optional[SpanLog],
              salt: int) -> Tally:
        budget = Budget(seconds * self.RATE)

        def body(index: int, client: WireClient) -> Tally:
            rng = random.Random(f"{self.seed}:{salt}:{index}")
            tally = Tally()
            queries, cum = self.queries, self.cum_weights
            while budget.take():
                text = rng.choices(queries, cum_weights=cum)[0]
                timed_request(client, {"op": "query", "query": text}, tally,
                              spans)
            return tally

        return run_connections(self.entry, self.CONNECTIONS, body)

    def probe_queries(self, round: int) -> List[str]:
        return self.queries


class RoutedReads(HotReads):
    name = "routed_reads"
    why = ("hot_reads traffic through a router to one serving replica, "
           "one process per node: the router hop and replica read path")
    RATE = 600
    fsync = "interval"

    def spawn(self, where: Path) -> None:
        data_dir = where / "primary-data"
        primary = self.node("primary", serve_args(
            self.snapshot, "--data-dir", str(data_dir), "--fsync", self.fsync),
            where)
        replica = self.node("replica", [
            "replicate", str(data_dir), "--serve-port", "0",
            "--promote-data-dir", str(where / "promoted")], where)
        router = self.node("router", [
            "router", "--primary", "%s:%d" % primary.address,
            "--replica", "%s:%d" % replica.address, "--port", "0"], where)
        client = WireClient(router.address)
        try:
            deadline = time.monotonic() + 30.0
            while not all(r["healthy"] for r in
                          client.request("cluster")["replicas"]):
                if time.monotonic() > deadline:
                    raise BenchError("router never saw the replica healthy")
                time.sleep(0.01)
        finally:
            client.close()

    @property
    def reader(self) -> Node:
        return self.nodes[1]

    @property
    def router(self) -> Optional[Tuple[str, int]]:
        return self.entry

    def warm(self) -> None:
        super().warm()
        served = router_metrics(self.entry)
        if served.get("router.reads_balanced", 0) < len(self.queries):
            raise BenchError("router did not send the reads to the replica")


def router_metrics(address: Tuple[str, int]) -> Dict[str, Any]:
    client = WireClient(address)
    try:
        return client.request("cluster")["metrics"]
    finally:
        client.close()


# -- cold_queries ------------------------------------------------------------
#: Shape templates; ``{a}``/``{b}`` bound a temporal window.
COLD_SHAPES = {
    "attribute_temporal": (
        "?- interval(G), object(O), O in G.entities, O.salience > {s}, "
        "G.duration => (t > {a} and t < {b})."),
    "join_temporal": (
        "?- interval(G), object(O1), object(O2), in(O1, O2, G), "
        "O1 in G.entities, G.duration => (t > {a} and t < {b})."),
    "membership_temporal": (
        "?- interval(G), e{k} in G.entities, "
        "G.duration => (t > {a} and t < {b})."),
    "contains": (
        "?- contains(G1, G2), G1.duration => (t > {a} and t < {b})."),
}

#: One cycle of the mix: shape -> requests per 50.  Every seed sends the
#: same proportions; the seed orders each cycle and draws the constants.
#: The one ``contains`` request opens its cycle, so two of them (about a
#: second each) never run at once.
COLD_MIX = {"contains": 1, "attribute_temporal": 12, "join_temporal": 18,
            "membership_temporal": 19}
COLD_FIRST = "contains"


class ColdQueries(Workload):
    name = "cold_queries"
    why = ("fresh constants on every request, so every request misses: "
           "cost on the fixpoint, constraint kernel and analysis")
    serve_flags = ("--stdlib",)
    SAMPLE_EVERY = 10
    #: Two connections would only interleave two evaluations under the
    #: server's interpreter lock: the p95 then measures which heavy
    #: queries happened to overlap, and spread by a quarter between
    #: sets of runs of the same code.
    CONNECTIONS = 1
    #: Mix cycles (50 requests each) per second of run length.
    CYCLES_PER_SECOND = 0.5

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.samples: List[Tuple[str, List[List[str]]]] = []
        self._seen: set = set()

    def spawn(self, where: Path) -> None:
        self.node("server", serve_args(self.snapshot, *self.serve_flags),
                  where)

    def make_query(self, rng: random.Random, shape: str) -> str:
        """A query of ``shape`` whose constants no earlier request used."""
        while True:
            a = rng.randrange(900_000) / 100.0
            b = round(a + rng.uniform(800.0, 1600.0), 2)
            text = COLD_SHAPES[shape].format(
                a=a, b=b, s=rng.randint(4, 8), k=rng.randrange(40))
            if text not in self._seen:
                self._seen.add(text)
                return text

    def warm(self) -> None:
        self._loop(WARMUP_S, None, salt=7, sample=False)

    def measure(self, seconds: float,
                spans: Optional[SpanLog] = None) -> Dict[str, Any]:
        return {"tally": self._loop(seconds, spans, salt=0, sample=True)}

    def _loop(self, seconds: float, spans: Optional[SpanLog], salt: int,
              sample: bool) -> Tally:
        """The connections take requests from one seeded sequence of
        whole mix cycles, so every run sends the mix in exactly its
        proportions."""
        budget = Budget(seconds * self.CYCLES_PER_SECOND)
        rest = [shape for shape, count in COLD_MIX.items()
                for _ in range(count - (shape == COLD_FIRST))]
        rng = random.Random(f"{self.seed}:{salt}")
        pending: List[Tuple[str, bool]] = []
        lock = threading.Lock()

        def next_request() -> Optional[Tuple[str, bool]]:
            with lock:
                if not pending:
                    if not budget.take():
                        return None
                    order = rest[:]
                    rng.shuffle(order)
                    order.insert(0, COLD_FIRST)
                    pending.extend(
                        (self.make_query(rng, shape),
                         sample and rng.randrange(self.SAMPLE_EVERY) == 0)
                        for shape in reversed(order))
                return pending.pop()

        def body(index: int, client: WireClient) -> Tally:
            tally = Tally()
            while True:
                request = next_request()
                if request is None:
                    return tally
                text, sampled = request
                reply = timed_request(
                    client, {"op": "query", "query": text}, tally, spans)
                if sampled and reply is not None:
                    self.samples.append((text, reply["rows"]))

        return run_connections(self.entry, self.CONNECTIONS, body)

    def check(self) -> None:
        if not self.samples:
            raise CheckFailed("no cold query was sampled for checking")
        engine = QueryEngine(self.db, use_stdlib_rules=True)
        for text, rows in self.samples:
            check_rows(text, answer_rows(engine.execute(text).answers), rows)

    def probe_queries(self, round: int) -> List[str]:
        rng = random.Random(f"{self.seed}:probe:{round}")
        return [self.make_query(rng, shape) for shape in COLD_MIX]


# -- ingest_standing ---------------------------------------------------------
class IngestStanding(Workload):
    name = "ingest_standing"
    why = ("batch writes to a durable primary with 16 standing queries, a "
           "push listener and dashboard reads: WAL, checkpoints, streams")
    SUBSCRIPTIONS = 16
    BATCH = 10
    READ_EVERY = 10
    #: Batches per second of run length.
    BATCHES_PER_SECOND = 40
    #: Intervals in the dump: enough for a 60-second run's batches.
    DUMP_INTERVALS = 11_000
    WARM_BATCHES = 20
    QUERY = "?- appears(O, G)."
    fsync = "interval"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.batches = self.dump_batches(seed, self.DUMP_INTERVALS)
        self.dump_records = sum(len(batch) for batch in self.batches)
        #: Fact arguments -> index of the batch that carries the fact.
        self.batch_of: Dict[Tuple[str, ...], int] = {
            tuple(record["args"]): index
            for index, batch in enumerate(self.batches)
            for record in batch if record["kind"] == "fact"}
        self.next_batch = 0
        self.send_time: Dict[int, float] = {}
        #: Batch index -> when the listener received the push with its
        #: rows; guarded by ``_pushed``.
        self.push_time: Dict[int, float] = {}
        self.pushes: List[Dict[str, Any]] = []
        self._pushed = threading.Condition()
        self.writer: Optional[WireClient] = None
        self.listener: Optional[WireClient] = None
        self._listen_thread: Optional[threading.Thread] = None

    @classmethod
    def dump_batches(cls, seed: int, intervals: int
                     ) -> List[List[Dict[str, Any]]]:
        """The seeded detector dump, cut into ``batch`` ops.  A shorter
        dump is a prefix of a longer one with the same seed."""
        records = generate_dump(entities=cls.SUBSCRIPTIONS,
                                intervals=intervals, seed=seed)
        return [records[i:i + cls.BATCH]
                for i in range(0, len(records), cls.BATCH)]

    def spawn(self, where: Path) -> None:
        self.close_clients()
        self.node("primary", serve_args(
            self.snapshot, "--data-dir", str(where / "data"),
            "--fsync", self.fsync), where)
        self.writer = WireClient(self.entry)
        self.writer.request("declare_relation", name="appears")
        # The listened subscription sees every appearance, so every
        # batch yields a notify sample; the other 15 each filter on one
        # subject and are never drained, as dashboards that went away.
        ids = [self.writer.request(
            "subscribe", query=self.QUERY, filter=self.filter_of(i),
            detach=True)["id"] for i in range(self.SUBSCRIPTIONS)]
        self.listener = WireClient(self.entry)
        self.listener.request("listen", id=ids[0])
        self.pushes, self.push_time, self.send_time = [], {}, {}
        self.next_batch = 0
        self._listen_thread = threading.Thread(target=self._listen,
                                               args=(self.listener,))
        self._listen_thread.start()

    def _listen(self, client: WireClient) -> None:
        while True:
            try:
                line = client.read_line()
            except OSError:
                return
            if not line:
                return
            received = time.perf_counter()
            push = json.loads(line)
            rows = push.get("rows") or []
            with self._pushed:
                self.pushes.append(push)
                if rows:
                    self.push_time[self.batch_of[tuple(rows[0])]] = received
                self._pushed.notify_all()

    def _await_push(self, index: int) -> None:
        if not any(r["kind"] == "fact" for r in self.batches[index]):
            return
        with self._pushed:
            if not self._pushed.wait_for(lambda: index in self.push_time,
                                         timeout=30.0):
                raise CheckFailed(f"no push arrived for batch {index}")

    def close_clients(self) -> None:
        for client in (self.writer, self.listener):
            if client is not None:
                client.close()
        if self._listen_thread is not None:
            self._listen_thread.join(timeout=10)
        self.writer = self.listener = self._listen_thread = None

    def warm(self) -> None:
        assert self.writer is not None
        for _ in range(self.WARM_BATCHES):
            self._send_batch(self.writer, Tally(), None)

    def _send_batch(self, client: WireClient, tally: Tally,
                    spans: Optional[SpanLog]) -> None:
        if self.next_batch >= len(self.batches):
            raise BenchError("the dump ran out before the run ended")
        index = self.next_batch
        batch = self.batches[index]
        payload = {"op": "batch", "ops": [record_to_op(r) for r in batch]}
        self.send_time[index] = time.perf_counter()
        reply = timed_request(client, payload, tally, spans,
                              units=len(batch))
        if reply is None:
            raise CheckFailed(f"batch {index} failed; the dump cannot "
                              f"continue past a lost batch")
        self.next_batch += 1

    def measure(self, seconds: float,
                spans: Optional[SpanLog] = None) -> Dict[str, Any]:
        assert self.writer is not None
        writes, reads = Tally(), Tally()
        first = self.next_batch
        budget = Budget(seconds * self.BATCHES_PER_SECOND)
        sent = 0
        while budget.take():
            self._send_batch(self.writer, writes, spans)
            # The next write waits until the listener holds this batch's
            # push.  Sent at once, it raced the push for the server's
            # interpreter lock, and the share of pushes that lost set
            # notify_p95_ms, which spread by a quarter of its median
            # between runs of the same code.
            self._await_push(self.next_batch - 1)
            sent += 1
            if sent % self.READ_EVERY == 0:
                oid = f"o{(sent // self.READ_EVERY) % self.SUBSCRIPTIONS + 1}"
                timed_request(self.writer, {
                    "op": "query", "query": f"?- appears({oid}, G)."},
                    reads, spans)
        return {"tally": writes, "reads": reads,
                "batches": range(first, self.next_batch)}

    def notify_ms(self, batches: range) -> List[float]:
        """Send-to-push latency of every batch in ``batches`` that
        produced a push."""
        with self._pushed:
            return [(self.push_time[i] - self.send_time[i]) * 1000.0
                    for i in batches if i in self.push_time]

    @staticmethod
    def filter_of(index: int) -> Optional[Dict[str, str]]:
        """Subscription ``index``'s filter: none for the listened one,
        one subject each for the rest."""
        return {"O": f"o{index + 1}"} if index else None

    def expected_rows(self) -> List[List[str]]:
        """What the listened subscription must have pushed: every fact
        of every batch sent."""
        return [[str(arg) for arg in record["args"]]
                for batch in self.batches[:self.next_batch]
                for record in batch if record["kind"] == "fact"]

    def check(self) -> None:
        expected = self.expected_rows()
        with self._pushed:
            # The push for the last batch may still be in flight.
            self._pushed.wait_for(
                lambda: sum(len(p.get("rows") or []) for p in self.pushes)
                >= len(expected), timeout=10.0)
            pushes = list(self.pushes)
        self.check_pushes(expected, pushes)
        assert self.writer is not None
        stats = self.writer.request("info")["stats"]
        want = self.db.stats()["facts"] + len(expected)
        if stats["facts"] != want:
            raise CheckFailed(f"server holds {stats['facts']} facts, the "
                              f"dump implies {want}")

    @staticmethod
    def check_pushes(expected: List[List[str]],
                     pushes: List[Dict[str, Any]]) -> None:
        seqs = [p["seq"] for p in pushes]
        if seqs != list(range(1, len(seqs) + 1)):
            raise CheckFailed(f"push seqs are not gap-free from 1: "
                              f"{seqs[:5]}...")
        got = [row for push in pushes for row in push.get("rows") or []]
        if sorted(got) != sorted(expected):
            raise CheckFailed(f"listener got {len(got)} row(s); the dump "
                              f"implies {len(expected)}")

    def probe_queries(self, round: int) -> List[str]:
        return [f"?- appears(o{k}, G)." for k in range(1, 5)]

    def stamp(self) -> Dict[str, Any]:
        out = super().stamp()
        out.update(dump_records=self.dump_records, batch_records=self.BATCH,
                   records_sent=sum(len(b) for b in
                                    self.batches[:self.next_batch]),
                   subscriptions=self.SUBSCRIPTIONS)
        return out


WORKLOADS = {cls.name: cls for cls in
             (HotReads, ColdQueries, IngestStanding, RoutedReads)}


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
