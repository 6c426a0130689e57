"""vidb server processes and a minimal JSON-lines client for the benchmark.

Every node the benchmark measures is a real ``vidb`` process started
from the checkout's ``src/`` tree (``python -m vidb.cli serve`` /
``replicate --serve-port`` / ``router``), so cluster numbers come from
one OS process per node rather than threads sharing one interpreter.
Each node binds port 0 and announces its address on its banner line;
stdout and stderr go to files in the run's work directory, so a chatty
node can never block on a full pipe.

The client here is deliberately not :class:`vidb.service.ServiceClient`:
the load generator must cost the same on every commit, whatever happens
to the program's own client.  It speaks the documented wire protocol
(one JSON object per line each way) and nothing else.
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: The checkout this benchmark lives in (``perfbench/..``).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_ADDRESS = re.compile(r" on ([0-9.]+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Runs in the child before exec: the kernel kills the node if the
    benchmark process dies first, so no node outlives a killed run."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


class BenchError(RuntimeError):
    """The benchmark could not run (a node failed to start, a check
    failed): the run reports no numbers."""


class Node:
    """One spawned vidb process, ready once its banner names an address."""

    def __init__(self, name: str, args: List[str], workdir: Path,
                 ready_timeout: float = 60.0):
        self.name = name
        self.workdir = workdir
        self.log_path = workdir / f"{name}.out"
        self.err_path = workdir / f"{name}.err"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        with open(self.log_path, "wb") as out, \
                open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "vidb.cli", *args],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                cwd=str(ROOT), env=env, preexec_fn=_die_with_parent)
        self.address = self._await_banner(ready_timeout)

    def _await_banner(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            for line in text.splitlines():
                match = _ADDRESS.search(line)
                if match and ("serving" in line or "router on" in line):
                    return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        tail = self.err_path.read_text(encoding="utf-8", errors="replace")
        raise BenchError(f"{self.name} did not come up: {tail[-800:]}")

    # -- /proc readings ------------------------------------------------------
    def cpu_seconds(self) -> float:
        """utime + stime of the process so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(
            ")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """VmHWM: the process's peak resident set size."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text(
                ).splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError(f"no VmHWM for {self.name}")

    def stop(self) -> None:
        """Kill the node and reap it.  Nothing the benchmark reads
        depends on a graceful shutdown, and a server holding a push
        connection would not finish one promptly."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


class WireClient:
    """One blocking JSON-lines connection."""

    def __init__(self, address: Tuple[str, int], timeout: float = 60.0):
        self.address = address
        self.timeout = timeout
        self._connect()

    def _connect(self) -> None:
        self.sock = socket.create_connection(self.address,
                                             timeout=self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send_line(self, line: bytes) -> bytes:
        """Send one encoded request line, return the raw reply line."""
        self.sock.sendall(line)
        reply = self.reader.readline()
        if not reply:
            raise ConnectionResetError("server closed the connection")
        return reply

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """A request whose failure is a benchmark error, not a sample."""
        payload = {"op": op, **fields}
        reply = json.loads(self.send_line(encode(payload)))
        if not reply.get("ok"):
            raise BenchError(f"{op} failed: {reply}")
        return reply

    def read_line(self) -> bytes:
        return self.reader.readline()

    def reconnect(self) -> None:
        self.close()
        self._connect()

    def close(self) -> None:
        # Shut the socket down first: it wakes a thread blocked reading
        # from it, which would otherwise hold the reader's lock.
        for closer in (lambda: self.sock.shutdown(socket.SHUT_RDWR),
                       self.reader.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


def encode(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


def wait_ready(address: Tuple[str, int], timeout: float = 30.0) -> None:
    """Block until the node answers ``ping``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            client = WireClient(address, timeout=5.0)
            try:
                client.request("ping")
                return
            finally:
                client.close()
        except (OSError, BenchError):
            if time.monotonic() > deadline:
                raise BenchError(f"{address} never answered ping") from None
            time.sleep(0.01)


def serve_args(snapshot: Optional[Path], *extra: str) -> List[str]:
    args = ["serve"]
    if snapshot is not None:
        args.append(str(snapshot))
    return args + ["--host", "127.0.0.1", "--port", "0", *extra]


def metrics(address: Tuple[str, int]) -> Dict[str, Any]:
    client = WireClient(address, timeout=10.0)
    try:
        return client.request("metrics")["metrics"]
    finally:
        client.close()
