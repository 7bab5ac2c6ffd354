"""The three workloads: inputs made from a seed, the load, and the
answer checks.

Every input is generated here, in the client, and reaches the server
only as request bodies.  Each workload keeps an exact ledger of what it
committed, checks every answer against it, and raises
:class:`~harness.AnswerMismatch` on the first disagreement: a wrong
answer fails the run, it is never counted as a failed request.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import os
import random
import time
from typing import Any, Awaitable, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from harness import (
    AnswerMismatch,
    Connection,
    Latencies,
    Reply,
    ServerProcess,
    encode,
    expect_json,
    median,
    now_ms,
)

MICRO = 1_000_000
DAY = 86_400 * MICRO
#: A request still unanswered after this long counts as failed.
REQUEST_TIMEOUT_S = 30.0

Respawn = Callable[[], Awaitable[ServerProcess]]


class Stats:
    """What the client measured, pooled over every server of a pass."""

    def __init__(self, nominal: Dict[str, int]) -> None:
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.rows_committed = 0
        self.classes = {label: Latencies(count) for label, count in nominal.items()}
        self.body_bytes = 0
        self.body_rows = 0
        self.cache_hits = 0
        self.cacheable = 0
        self.lag = Latencies(0)
        #: Per-server values of a workload's own metrics: name -> (unit, values).
        self.extra: Dict[str, Tuple[str, List[float]]] = {}

    def note(self, name: str, value: float, unit: str) -> None:
        self.extra.setdefault(name, (unit, []))[1].append(value)


class Workload:
    """One server's share of a workload: its inputs, load and checks.

    A pass sets a fresh server up several times; each gets its own
    :class:`Workload` built from the same seed (so the same inputs), and
    all of them record into one shared :class:`Stats`.
    """

    name = ""
    relation = ""
    spec: Dict[str, Any] = {}
    flush_policy = ""
    #: Client connections in the timed phase (capped at nproc by run.py).
    connections = 1
    #: The request class whose median and tail are ``p50_ms`` / ``tail_ms``.
    primary = ""
    #: The named throughput metric and its unit.
    throughput = ("", "")

    def __init__(self, seed: int, run_dir: str, stats: Stats) -> None:
        self.rng = random.Random(seed)
        self.stats = stats

    @classmethod
    def nominal(cls, seconds: float) -> Dict[str, int]:
        """Latency class -> the sample count a timed phase of *seconds*
        is sized for; it fixes each class's tail percentile."""
        raise NotImplementedError

    @classmethod
    def work(cls, stats: Stats) -> int:
        """What the throughput metric counts: requests completed."""
        return stats.completed

    def server_args(self) -> List[str]:
        return []

    def path(self, verb: str) -> str:
        return f"/relations/{self.relation}/{verb}"

    async def create(self, admin: Connection) -> Dict[str, Any]:
        return expect_json(await admin.post("/relations", self.spec), "create relation")

    async def timed(
        self, conn: Connection, method: str, target: str, body: bytes = b"", due: float = 0.0
    ) -> Optional[Tuple[Reply, float]]:
        """One timed request: ``(reply, ms)``, or None when it failed.

        The clock runs from *due* when given (open loop), else from the
        send.  Non-2xx replies, refusals and timeouts count as failed.
        """
        stats = self.stats
        stats.attempted += 1
        start = due or now_ms()
        if not due and conn.replied_at:
            # Closed loop: the request was due when the previous reply came.
            stats.lag.add(start - conn.replied_at)
        try:
            reply = await asyncio.wait_for(
                conn.request(method, target, body), timeout=REQUEST_TIMEOUT_S
            )
        except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError):
            stats.failed += 1
            await conn.close()
            await conn.connect()
            return None
        elapsed = now_ms() - start
        if not 200 <= reply.status < 300:
            stats.failed += 1
            return None
        stats.completed += 1
        cache = reply.headers.get("x-repro-cache")
        if cache is not None:
            stats.cacheable += 1
            stats.cache_hits += cache == "hit"
        return reply, elapsed

    def rows_served(self, reply: Reply, rows: int) -> None:
        self.stats.body_bytes += len(reply.body)
        self.stats.body_rows += rows

    async def setup(self, admin: Connection) -> None:
        """Create the relation and preload it (timed as ``setup_s``)."""
        raise NotImplementedError

    async def warm(self, conns: Sequence[Connection]) -> None:
        """Untimed requests that let lazy set-up finish before timing
        (the pass points :attr:`stats` elsewhere meanwhile)."""

    async def drive(self, conns: Sequence[Connection], seconds: float) -> None:
        raise NotImplementedError

    async def verify(
        self, admin: Connection, server: ServerProcess, respawn: Optional[Respawn]
    ) -> None:
        """Answer checks that need the whole timed phase.  *respawn*, on
        the last server of a pass, starts a new server on the same data."""

    def stored_rows(self) -> int:
        """Rows the server holds at the end of the timed phase."""
        raise NotImplementedError


def named_metrics(
    cls: type, stats: Stats, elapsed_s: float
) -> Dict[str, Tuple[float, str]]:
    """Every named end-to-end metric a pass of *cls* measured."""
    metrics: Dict[str, Tuple[float, str]] = {}
    for label, latencies in stats.classes.items():
        summary = latencies.summary()
        if summary:
            metrics[f"{label}_p50_ms"] = (summary["p50"], "ms")
            metrics[f"{label}_tail_ms"] = (summary["tail"], "ms")
    name, unit = cls.throughput
    metrics[name] = (cls.work(stats) / elapsed_s, unit)
    metrics["failed_frac"] = (stats.failed / max(1, stats.attempted), "ratio")
    for name, (unit, values) in stats.extra.items():
        metrics[name] = (median(values), unit)
    return metrics


# -- ingest_keyed ------------------------------------------------------------------------


class IngestKeyed(Workload):
    """Keyed bulk ingest into a log-file relation, closed loop.

    Payroll-shaped (paper §3.1): key ``account``, declared
    ``predictive`` and ``early predictive(3d)``.  The log-file engine
    writes one WAL frame and fsyncs once per committed batch.  Each
    batch holds 20 accounts with 100 rows each, and every valid time is
    placed three days plus a fraction of a second after the transaction
    time the server's clock will stamp on that row, so no row is
    rejected and no two rows of an account share a valid time.
    """

    name = "ingest_keyed"
    relation = "payroll"
    spec = {
        "name": "payroll",
        "engine": "logfile",
        "key": ["account"],
        "time_invariant": ["account"],
        "time_varying": ["amount"],
        "specializations": ["predictive", "early predictive(3d)"],
    }
    flush_policy = "logfile engine: one WAL frame and one fsync per committed batch"
    primary = "bulk"
    throughput = ("ingest_rows_per_s", "rows/s")
    BATCH_ROWS = 2_000
    ROWS_PER_KEY = 100
    ACCOUNTS = 10_000
    WARM_BATCHES = 2

    def __init__(self, seed: int, run_dir: str, stats: Stats) -> None:
        super().__init__(seed, run_dir, stats)
        self.data_dir = os.path.join(run_dir, "data")
        self.acked = 0
        self.next_tt = 0
        self.prepared: Tuple[int, bytes] = (0, b"")

    @classmethod
    def nominal(cls, seconds: float) -> Dict[str, int]:
        return {"bulk": int(seconds * 6)}

    @classmethod
    def work(cls, stats: Stats) -> int:
        return stats.rows_committed

    def server_args(self) -> List[str]:
        return ["--data-dir", self.data_dir]

    async def setup(self, admin: Connection) -> None:
        created = await self.create(admin)
        self.next_tt = created["epoch"]["tt"] + 1

    def batch(self, first_tt: int) -> Tuple[int, bytes]:
        """A batch whose row i the server will stamp ``first_tt + i`` s
        (its logical clock ticks once per row, in seconds)."""
        rng = self.rng
        accounts = rng.sample(range(self.ACCOUNTS), self.BATCH_ROWS // self.ROWS_PER_KEY)
        keys = [f"acct-{a}" for a in accounts for _ in range(self.ROWS_PER_KEY)]
        rng.shuffle(keys)
        lead = first_tt + 3 * DAY
        rows = [
            [key, lead + i * MICRO + rng.randrange(1, MICRO),
             {"account": key, "amount": rng.randrange(1, 100_000)}]
            for i, key in enumerate(keys)
        ]
        return first_tt, encode({"rows": rows})

    async def post_batch(self, conn: Connection) -> None:
        """Post the prepared batch and, while the server works on it,
        prepare the next one, so the closed loop waits on the server
        rather than on the client's own encoding."""
        first_tt, body = self.prepared
        sending = asyncio.ensure_future(self.timed(conn, "POST", self.path("bulk"), body))
        await asyncio.sleep(0)  # the request is on the wire
        expected_tt = first_tt + self.BATCH_ROWS * MICRO
        self.prepared = self.batch(expected_tt)
        result = await sending
        if result is None:
            # The batch may or may not have committed: re-read the pin
            # and the stored count so the ledger stays exact.
            stats = expect_json(await conn.get(f"/relations/{self.relation}"), "stats")
            self.next_tt = stats["epoch"]["tt"] + 1
            self.acked = stats["elements"]
        else:
            reply, ms = result
            ack = reply.json()
            if ack["count"] != self.BATCH_ROWS or len(ack["elements"]) != self.BATCH_ROWS:
                raise AnswerMismatch(
                    f"bulk of {self.BATCH_ROWS} rows acknowledged {ack['count']}"
                )
            self.acked += ack["count"]
            self.next_tt = ack["epoch"]["tt"] + 1
            self.rows_served(reply, ack["count"])
            self.stats.rows_committed += ack["count"]
            self.stats.classes["bulk"].add(ms)
        if self.next_tt != expected_tt:
            self.prepared = self.batch(self.next_tt)

    async def warm(self, conns: Sequence[Connection]) -> None:
        self.prepared = self.batch(self.next_tt)
        for _ in range(self.WARM_BATCHES):
            await self.post_batch(conns[0])

    async def drive(self, conns: Sequence[Connection], seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            await self.post_batch(conns[0])

    async def verify(
        self, admin: Connection, server: ServerProcess, respawn: Optional[Respawn]
    ) -> None:
        stored = expect_json(await admin.get(f"/relations/{self.relation}"), "stats")
        if stored["elements"] != self.acked:
            raise AnswerMismatch(
                f"server stores {stored['elements']} rows, {self.acked} were acknowledged"
            )
        wal = os.path.getsize(os.path.join(self.data_dir, f"{self.relation}.logfile"))
        self.stats.note("wal_bytes_per_row", wal / self.acked, "B/row")
        if respawn is None:
            return
        await admin.close()
        server.kill()
        began = time.perf_counter()
        reopened = await respawn()
        try:
            conn = await Connection(reopened.host, reopened.port).connect()
            try:
                await self.create(conn)
                recovered = expect_json(await conn.get(f"/relations/{self.relation}"), "stats")
                self.stats.note("recovery_s", time.perf_counter() - began, "s")
            finally:
                await conn.close()
        finally:
            reopened.stop()
        if recovered["elements"] != self.acked:
            raise AnswerMismatch(
                f"recovered {recovered['elements']} rows after SIGKILL, "
                f"{self.acked} were acknowledged"
            )

    def stored_rows(self) -> int:
        return self.acked


# -- pinned_reads ------------------------------------------------------------------------


class PinnedReads(Workload):
    """Pinned point reads over a fixed, preloaded memory relation.

    About 40k unkeyed events (about ten sealed 4,096-row segments), one
    to three at each of 20k valid times.  No writes while timing, so
    every read runs at the same pin.  REST timeslices and one-point
    overlaps never repeat, so they always miss the 256-entry response
    cache; a 32-request hot set, re-read often enough to stay resident,
    always hits; TQL ``VALID AT ... AS OF <pin>`` asks the same question
    through the planner.

    A closed loop on one connection.  The pinned scan holds the
    interpreter lock, so a second connection adds no throughput (28.6
    against 30.5 reads/s on 2 vCPUs) and only doubles each read's
    latency, with a lock-convoy swing of about 7% from run to run.
    """

    name = "pinned_reads"
    relation = "events"
    spec = {"name": "events", "time_varying": ["v"]}
    flush_policy = "memory engine: nothing is flushed"
    primary = "read"
    throughput = ("reads_per_s", "req/s")
    VALID_TIMES = 20_000
    VT0 = 1_000_000 * MICRO
    PRELOAD_BATCH = 5_000
    HOT = 32
    HOT_SHARE = 0.3
    TQL_SHARE = 0.3
    WARM_READS = 20

    def __init__(self, seed: int, run_dir: str, stats: Stats) -> None:
        super().__init__(seed, run_dir, stats)
        rng = self.rng
        self.counts = [rng.randint(1, 3) for _ in range(self.VALID_TIMES)]
        self.preload = [k for k, count in enumerate(self.counts) for _ in range(count)]
        rng.shuffle(self.preload)
        points = list(range(self.VALID_TIMES))
        rng.shuffle(points)
        hot_points, self.points = points[: self.HOT], points[self.HOT :]
        self.hot = [self.rest_target(i % 2, k) for i, k in enumerate(hot_points)]
        self.uncached = self.never_repeated(rest=True)
        self.statements = self.never_repeated(rest=False)
        self.reference: Dict[str, bytes] = {}
        self.pin: Dict[str, int] = {}

    @classmethod
    def nominal(cls, seconds: float) -> Dict[str, int]:
        return {
            "read": int(seconds * 12),
            "cached_read": int(seconds * 9),
            "tql": int(seconds * 9),
        }

    def vt(self, k: int) -> int:
        return self.VT0 + k * MICRO

    async def setup(self, admin: Connection) -> None:
        await self.create(admin)
        for start in range(0, len(self.preload), self.PRELOAD_BATCH):
            chunk = self.preload[start : start + self.PRELOAD_BATCH]
            rows = [[f"obj-{(start + i) % 997}", self.vt(k), {"v": start + i}]
                    for i, k in enumerate(chunk)]
            ack = expect_json(await admin.post(self.path("bulk"), {"rows": rows}), "preload")
            self.pin = ack["epoch"]
        if self.pin["elements"] != len(self.preload):
            raise AnswerMismatch(f"preload stored {self.pin['elements']} of {len(self.preload)}")

    def rest_target(self, overlap: int, k: int, widen: int = 0) -> Tuple[str, int]:
        """A timeslice at point *k*, or a one-point overlap (widened by
        *widen* µs, which still holds only that point)."""
        vt = self.vt(k)
        if overlap:
            return f"{self.path('overlap')}?start={vt}&end={vt + 1 + widen}", k
        return f"{self.path('timeslice')}?vt={vt}", k

    def never_repeated(self, rest: bool) -> Iterator[Tuple[Any, int]]:
        """Requests no earlier request repeated, in a seeded order.

        The first round asks each point once per form; later rounds
        widen the overlap window (REST) or move ``AS OF`` past the pin
        (TQL) by the round number, which changes no answer because
        nothing is written after the preload.
        """
        order = list(self.points)
        self.rng.shuffle(order)
        for round_ in itertools.count():
            for k in order:
                if not rest:
                    statement = (
                        f"SELECT * FROM {self.relation} VALID AT {self.vt(k)}us "
                        f"AS OF {self.pin['tt'] + round_}us"
                    )
                    yield encode({"tql": statement}), k
                elif round_:
                    yield self.rest_target(1, k, widen=round_)
                else:
                    yield self.rest_target(0, k)
                    yield self.rest_target(1, k)

    def check_rows(self, what: str, k: int, body: Dict[str, Any]) -> None:
        if body["count"] != self.counts[k] or len(body["rows"]) != self.counts[k]:
            raise AnswerMismatch(
                f"{what} at vt={self.vt(k)}: {body['count']} rows served, "
                f"{self.counts[k]} stored"
            )
        if "epoch" in body and body["epoch"] != self.pin:
            raise AnswerMismatch(f"{what} served at {body['epoch']}, expected pin {self.pin}")

    async def rest_read(self, conn: Connection, target: str, k: int, hot: bool) -> None:
        result = await self.timed(conn, "GET", target)
        if result is None:
            return
        reply, ms = result
        reference = self.reference.get(target)
        if reference is not None:
            # A repeat (hit or, after an eviction, a miss) must be byte-
            # identical to the first uncached body of the same request.
            if reply.body != reference:
                raise AnswerMismatch(f"{target} differs from its first body")
            self.rows_served(reply, self.counts[k])
        elif not hot and reply.headers.get("x-repro-cache") == "hit":
            raise AnswerMismatch(f"never-repeated {target} hit the cache")
        else:
            body = reply.json()
            self.check_rows(target, k, body)
            self.rows_served(reply, body["count"])
            if hot:
                self.reference[target] = reply.body
        if reply.headers.get("x-repro-cache") == "hit":
            self.stats.classes["cached_read"].add(ms)
        elif not hot:
            self.stats.classes["read"].add(ms)

    async def tql_read(self, conn: Connection, statement: bytes, k: int) -> None:
        result = await self.timed(conn, "POST", "/query", statement)
        if result is None:
            return
        reply, ms = result
        body = reply.json()
        self.check_rows(statement.decode("utf-8"), k, body)
        self.rows_served(reply, body["count"])
        self.stats.classes["tql"].add(ms)

    async def warm(self, conns: Sequence[Connection]) -> None:
        for target, k in self.hot:
            await self.rest_read(conns[0], target, k, hot=True)
        for _ in range(self.WARM_READS):
            await self.rest_read(conns[0], *next(self.uncached), hot=False)
            await self.tql_read(conns[0], *next(self.statements))

    async def drive(self, conns: Sequence[Connection], seconds: float) -> None:
        end = time.perf_counter() + seconds
        choices = self.rng

        async def loop(conn: Connection) -> None:
            while time.perf_counter() < end:
                draw = choices.random()
                if draw < self.HOT_SHARE:
                    await self.rest_read(conn, *self.hot[choices.randrange(self.HOT)], hot=True)
                elif draw < self.HOT_SHARE + self.TQL_SHARE:
                    await self.tql_read(conn, *next(self.statements))
                else:
                    await self.rest_read(conn, *next(self.uncached), hot=False)

        await asyncio.gather(*(loop(conn) for conn in conns))

    def stored_rows(self) -> int:
        return len(self.preload)


# -- mixed_serving -----------------------------------------------------------------------


class _Ledger:
    """Rows in commit order with the relation version that stored them.

    Valid times trail transaction times by under ``max_lag`` µs, so the
    rows valid in a window are found by bisecting the (increasing)
    transaction times.
    """

    def __init__(self, max_lag: int) -> None:
        self.max_lag = max_lag
        self.tts: List[int] = []
        self.vts: List[int] = []
        self.versions: List[int] = []

    def commit(self, version: int, tts: Sequence[int], vts: Sequence[int]) -> None:
        self.tts.extend(tts)
        self.vts.extend(vts)
        self.versions.extend([version] * len(tts))

    def count(self, version: int, low: int, high: int) -> int:
        """Rows stored by *version* whose valid time is in [low, high)."""
        first = bisect.bisect_left(self.tts, low)
        last = bisect.bisect_left(self.tts, high + self.max_lag)
        return sum(
            1
            for i in range(first, last)
            if self.versions[i] <= version and low <= self.vts[i] < high
        )


class MixedServing(Workload):
    """Large-result reads beside a steady writer, open loop.

    Runnable with ``--workload mixed_serving`` but not listed in
    ``BENCHMARK.json``: on a shared 2-vCPU host its median moved with
    host slowdowns by more than the 0.25 bound (spread 0.26 and 0.33 of
    the median in two of four ten-seed sets).

    A monitoring-shaped memory relation (unkeyed; declares
    ``retroactive`` and ``strongly retroactively bounded(60s)``: every
    reading is stored up to 50 s after it was taken).  One connection
    writes 100-row batches at a fixed rate; the other reads at a fixed
    rate, in turn: a rollback to the end of the preload (5k rows), an
    overlap over the most recent 5,000 s of valid time (also about 5k
    rows, so the REST read class has one cost, not two), and the same
    window as a TQL select.  Both rates are about a quarter of the 1:1
    mix this commit sustains without a backlog (about 12 batches/s
    beside 12 reads/s on 2 vCPUs): at half, a host running 30% slower
    pushed the server into its queueing knee and doubled the median.
    Each stream is periodic and the two periods differ (3.5/s against
    3/s), so their relative phase sweeps through every value every two
    seconds: each run meets every overlap of a read with a write
    equally often, instead of whatever a seeded random schedule happens
    to draw.  Latency counts from the time a request was due, so a
    stall also charges the requests it delays.
    """

    name = "mixed_serving"
    relation = "readings"
    spec = {
        "name": "readings",
        "time_varying": ["sensor", "celsius"],
        "specializations": ["retroactive", "strongly retroactively bounded(60s)"],
    }
    flush_policy = "memory engine: nothing is flushed"
    connections = 2
    primary = "read"
    throughput = ("requests_per_s", "req/s")
    PRELOAD = 5_000
    PRELOAD_BATCH = 1_000
    BATCH_ROWS = 100
    SENSORS = 40
    MAX_DELAY = 50 * MICRO
    WINDOW = 5_000 * MICRO
    WRITE_RATE = 3.5  # batches/s
    READ_RATE = 3.0  # reads/s, rotating over three kinds

    def __init__(self, seed: int, run_dir: str, stats: Stats) -> None:
        super().__init__(seed, run_dir, stats)
        self.ledger = _Ledger(self.MAX_DELAY)
        self.next_tt = 0
        self.version = 0
        self.writing = False
        self.preload_tt = 0
        self.observations: List[Tuple[str, int, int, int, int, int]] = []

    @classmethod
    def nominal(cls, seconds: float) -> Dict[str, int]:
        reads = int(seconds * cls.READ_RATE)
        return {
            "bulk": int(seconds * cls.WRITE_RATE),
            "read": reads - reads // 3,
            "tql": reads // 3,
        }

    def batch(self, rows: int) -> Tuple[bytes, List[int], List[int]]:
        rng = self.rng
        tts = [self.next_tt + i * MICRO for i in range(rows)]
        vts = [tt - min(tt, rng.randrange(self.MAX_DELAY)) for tt in tts]
        payload = [
            [f"sensor-{i % self.SENSORS}", vt,
             {"sensor": i % self.SENSORS, "celsius": round(rng.uniform(15.0, 35.0), 2)}]
            for i, vt in enumerate(vts)
        ]
        return encode({"rows": payload}), tts, vts

    def committed(self, ack: Dict[str, Any], tts: List[int], vts: List[int]) -> None:
        elements = ack["elements"]
        if [e["tt_start"] for e in elements] != tts or [e["vt"] for e in elements] != vts:
            raise AnswerMismatch(f"bulk acknowledged {ack['count']} rows at unexpected stamps")
        self.version = ack["epoch"]["version"]
        self.ledger.commit(self.version, tts, vts)
        self.next_tt = ack["epoch"]["tt"] + 1

    async def setup(self, admin: Connection) -> None:
        created = await self.create(admin)
        self.next_tt = created["epoch"]["tt"] + 1
        for _ in range(self.PRELOAD // self.PRELOAD_BATCH):
            body, tts, vts = self.batch(self.PRELOAD_BATCH)
            reply = await admin.request("POST", self.path("bulk"), body)
            self.committed(expect_json(reply, "preload"), tts, vts)
        self.preload_tt = self.next_tt - 1

    async def open_loop(
        self, dues: Sequence[float], send: Callable[[int, float], Awaitable[None]]
    ) -> None:
        """Send request *i* at ``dues[i]`` (ms), or as soon as the
        previous one returns when that is later."""
        done = 0.0
        for i, due in enumerate(dues):
            delay = (due - now_ms()) / 1000.0
            if delay > 0:
                await asyncio.sleep(delay)
            self.stats.lag.add(now_ms() - max(due, done))
            await send(i, due)
            done = now_ms()

    async def write(self, conn: Connection, due: float) -> None:
        body, tts, vts = self.batch(self.BATCH_ROWS)
        self.writing = True
        result = await self.timed(conn, "POST", self.path("bulk"), body, due=due)
        self.writing = False
        if result is None:
            raise AnswerMismatch("a bulk failed; the ledger can no longer be kept exact")
        reply, ms = result
        ack = reply.json()
        self.committed(ack, tts, vts)
        self.rows_served(reply, ack["count"])
        self.stats.classes["bulk"].add(ms)

    async def read(self, conn: Connection, i: int, due: float) -> None:
        kind = ("rollback", "overlap", "tql")[i % 3]
        high = self.next_tt
        low = high - self.WINDOW
        low_version = self.version
        if kind == "rollback":
            result = await self.timed(
                conn, "GET", f"{self.path('rollback')}?tt={self.preload_tt}", due=due
            )
        elif kind == "overlap":
            result = await self.timed(
                conn, "GET", f"{self.path('overlap')}?start={low}&end={high}", due=due
            )
        else:
            statement = (
                f"SELECT * FROM {self.relation} VALID OVERLAPS [{low}us, {high}us)"
            )
            result = await self.timed(conn, "POST", "/query", encode({"tql": statement}), due=due)
        if result is None:
            return
        reply, ms = result
        # Any commit this read could have seen was sent before it returned.
        high_version = self.version + (1 if self.writing else 0)
        body = reply.json()
        if kind == "tql":
            self.stats.classes["tql"].add(ms)
        else:
            self.stats.classes["read"].add(ms)
            low_version = high_version = body["epoch"]["version"]
        self.rows_served(reply, body["count"])
        self.observations.append((kind, low, high, low_version, high_version, body["count"]))

    async def warm(self, conns: Sequence[Connection]) -> None:
        await self.write(conns[0], 0.0)
        for i in range(3):
            await self.read(conns[-1], i, 0.0)
        self.observations.clear()

    async def drive(self, conns: Sequence[Connection], seconds: float) -> None:
        writer, reader = conns[0], conns[-1]
        start = now_ms() + 5.0

        def schedule(rate: float) -> List[float]:
            return [start + i * 1000.0 / rate for i in range(int(seconds * rate))]

        async def write(_i: int, due: float) -> None:
            await self.write(writer, due)

        async def read(i: int, due: float) -> None:
            await self.read(reader, i, due)

        await asyncio.gather(
            self.open_loop(schedule(self.WRITE_RATE), write),
            self.open_loop(schedule(self.READ_RATE), read),
        )

    async def verify(
        self, admin: Connection, server: ServerProcess, respawn: Optional[Respawn]
    ) -> None:
        for kind, low, high, low_version, high_version, served in self.observations:
            if kind == "rollback":
                expected = {self.PRELOAD}
            else:
                expected = {
                    self.ledger.count(version, low, high)
                    for version in range(low_version, high_version + 1)
                }
            if served not in expected:
                raise AnswerMismatch(
                    f"{kind} [{low}, {high}) at versions {low_version}..{high_version}: "
                    f"{served} rows served, ledger says {sorted(expected)}"
                )
        stats = expect_json(await admin.get(f"/relations/{self.relation}"), "stats")
        if stats["elements"] != len(self.ledger.tts):
            raise AnswerMismatch(
                f"server stores {stats['elements']} rows, {len(self.ledger.tts)} acknowledged"
            )

    def stored_rows(self) -> int:
        return len(self.ledger.tts)


WORKLOADS = {cls.name: cls for cls in (IngestKeyed, PinnedReads, MixedServing)}
