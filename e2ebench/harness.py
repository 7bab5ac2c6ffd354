"""The server process, the client's clock and the statistics the
benchmark reports.

The server always runs in its own process, started fresh for every
pass: ``python3 -m repro serve`` for an untraced pass, or the same
command line behind ``e2ebench/spans.py`` for a traced one.  Everything
it writes (its log, its data directory, a span dump) lives in a run
directory inside the checkout that the caller removes at the end.

The client side imports nothing from ``repro``: a change to the
program must not change how it is measured.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

_READY = re.compile(r"serving on http://([^:\s]+):(\d+)")
#: How long a server may take to print its address.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


class AnswerMismatch(Exception):
    """A response disagreed with the client's exact ledger."""


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "server", "app.py"))


class ServerProcess:
    """One ``repro serve`` process on an ephemeral loopback port."""

    def __init__(self, run_dir: str, traced: bool, args: Sequence[str] = ()) -> None:
        self.run_dir = run_dir
        self.traced = traced
        self.args = list(args)
        self.log_path = os.path.join(run_dir, f"server-{time.monotonic_ns()}.log")
        self.span_dir = os.path.join(run_dir, "spans")
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    async def start(self) -> None:
        """Spawn the server and wait until it prints its address."""
        os.makedirs(self.run_dir, exist_ok=True)
        serve = ["serve", "--host", self.host, "--port", "0", *self.args]
        if self.traced:
            command = [sys.executable, os.path.join(HERE, "spans.py"), "--dump", self.span_dir]
        else:
            command = [sys.executable, "-m", "repro"]
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command + serve, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            with open(self.log_path, "rb") as log:
                match = _READY.search(log.read().decode("utf-8", "replace"))
            if match:
                self.port = int(match.group(2))
                return
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start; log:\n{self.log()}")
            await asyncio.sleep(0.002)

    def log(self) -> str:
        with open(self.log_path, "rb") as log:
            return log.read().decode("utf-8", "replace")[-4000:]

    def _proc(self, name: str) -> str:
        with open(f"/proc/{self.pid}/{name}") as handle:
            return handle.read()

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the process's peak resident set, in MiB."""
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """User plus system CPU time the server has used so far."""
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    async def dump_spans(self) -> str:
        """Ask a traced server to write its spans; returns the directory."""
        done = os.path.join(self.span_dir, "done")
        if os.path.exists(done):
            os.remove(done)
        os.kill(self.pid, signal.SIGUSR1)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while not os.path.exists(done):
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no span dump")
            await asyncio.sleep(0.01)
        return self.span_dir

    def kill(self) -> None:
        """SIGKILL: no shutdown path runs, unflushed bytes are lost."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
        self._reap()

    def stop(self) -> None:
        """Graceful shutdown (SIGINT, as Ctrl-C), escalating to SIGKILL."""
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self._reap()

    def _reap(self) -> None:
        if self.process is not None:
            self.process.wait()


class Reply:
    """One HTTP response as the client received it."""

    __slots__ = ("status", "headers", "body")

    def __init__(self, status: int, headers: Dict[str, str], body: bytes) -> None:
        self.status = status
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        return json.loads(self.body)


class Connection:
    """One keep-alive HTTP/1.1 connection, one request in flight.

    Bodies are encoded by the caller before the clock starts and parsed
    after it stops, so a latency sample holds only the round trip.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()
        #: When the last reply was read (ms); 0 before the first one.
        self.replied_at = 0.0

    async def connect(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=1 << 20
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._writer = self._reader = None

    async def request(self, method: str, target: str, body: bytes = b"") -> Reply:
        # Two streams share a connection only when nproc is 1.
        async with self._lock:
            return await self._exchange(method, target, body)

    async def _exchange(self, method: str, target: str, body: bytes) -> Reply:
        assert self._reader is not None and self._writer is not None
        self._writer.write(
            f"{method} {target} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
        )
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("ascii").split("\r\n")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        payload = await self._reader.readexactly(length) if length else b""
        self.replied_at = now_ms()
        return Reply(int(lines[0].split(" ")[1]), headers, payload)

    async def get(self, target: str) -> Reply:
        return await self.request("GET", target)

    async def post(self, path: str, payload: Any) -> Reply:
        return await self.request("POST", path, encode(payload))


def encode(payload: Any) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def expect_json(reply: Reply, what: str) -> Any:
    """The parsed body of a 2xx reply; anything else is a failed request."""
    if not 200 <= reply.status < 300:
        raise RequestFailed(f"{what}: HTTP {reply.status}: {reply.body[:300]!r}")
    return reply.json()


class RequestFailed(Exception):
    """A request answered with a non-2xx status during set-up or checks."""


# -- statistics ------------------------------------------------------------------------


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> int:
    """The highest of p99, p95 and p90 with at least ten of *count*
    samples above its rank (p90 when none has)."""
    for pct in (99, 95, 90):
        if count - math.ceil(pct / 100.0 * count) >= 10:
            return pct
    return 90


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


@contextmanager
def client_gc_held() -> Iterator[None]:
    """Collect, then hold the client's cyclic collector for a timed
    phase, so a collector pause in the client is not charged to the
    server.  The server's collector is never touched."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Latencies:
    """Client-side latency samples of one request class, in ms."""

    def __init__(self, nominal: int) -> None:
        #: The sample count the class is sized for; it fixes the tail
        #: percentile so that the same percentile is compared run to run.
        self.nominal = nominal
        self.samples: List[float] = []

    @property
    def tail_pct(self) -> int:
        return tail_percentile(self.nominal)

    def add(self, ms: float) -> None:
        self.samples.append(ms)

    def summary(self) -> Dict[str, float]:
        if not self.samples:
            return {}
        return {
            "p50": percentile(self.samples, 50),
            "tail": percentile(self.samples, self.tail_pct),
        }


def now_ms() -> float:
    return time.perf_counter() * 1000.0
