"""End-to-end benchmark of ``repro serve``.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts ``repro serve`` in its own process (fresh for every pass), drives
one workload from this single client process over loopback, checks
every answer, and prints a report followed by one JSON line.

``--trace 0`` starts three servers one after another, sets each up and
times each for a third of ``--seconds``, pooling the client's samples.
Its JSON carries the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s`` -- server start to ready, plus relation creation and
  preload (median of the three);
* ``p50_ms`` -- the median of the workload's primary request class
  (``bulk`` on ingest_keyed, uncached REST ``read`` on pinned_reads,
  large-result REST ``read`` on mixed_serving);
* ``rss_bytes_per_row`` -- the server's peak resident memory
  (``server_rss_mb``) per row it stores at the end.  Per row, because
  ingest_keyed stores as many rows as it manages to ingest.

The report lines above the JSON print every named end-to-end metric the
workload measures (``bulk_*``, ``read_*``, ``cached_read_*``, ``tql_*``,
the throughput ``ingest_rows_per_s`` / ``reads_per_s`` /
``requests_per_s``, ``failed_frac``, ``server_rss_mb``,
``wal_bytes_per_row``, ``recovery_s``).  Tails and throughput are
reported but not in the JSON.  A tail of 100 to 300 samples moves with
every slowdown of a shared host (its run-to-run spread reached 0.35 of
its median where the median's stayed near 0.1); throughput in a closed
loop is the requests in flight over the mean latency, and in the open
loop it is fixed by the schedule.

``--trace 1`` runs the workload twice for half of ``--seconds`` each:
once untraced and once with spans around each layer's entry points
(``e2ebench/spans.py``).  Its JSON carries the per-layer metrics: self
time and calls per completed request for every span, the derived
ratios, the server CPU no span covers, the client's lag (how late it
sent each request: after its due time in the open loop, after the
previous reply in a closed loop), and the tracing overhead (traced
minus untraced) of each end-to-end metric.

A wrong answer prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type

import harness
import spans as spanlib
from harness import (
    AnswerMismatch,
    Connection,
    RequestFailed,
    ServerProcess,
    client_gc_held,
    expect_json,
    median,
    tail_percentile,
)
from workloads import WORKLOADS, Stats, Workload, named_metrics

#: Fresh servers per untraced run, each set up and timed for a third of
#: ``--seconds``; ``setup_s`` is the median of their set-ups.
SERVERS = 3
#: Every run ends well inside three minutes, servers stopped.
RUN_BUDGET_S = 150.0

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("rss_bytes_per_row", "B/row"),
)
#: Counters read from ``GET /metrics`` around the traced phase.
COUNTERS = (
    "server.writer.commits",
    "storage.logfile.fsyncs",
    "storage.memory.vt_index_hits",
    "storage.memory.vt_index_misses",
    "query.elements_examined",
    "query.elements_returned",
)


def per_layer_units() -> List[Tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: List[Tuple[str, str]] = []
    for span in spanlib.LAYER_SPANS:
        units += [(f"{span}.self_ms", "ms"), (f"{span}.calls", "count")]
    units += [
        ("server.protocol.bytes_per_row", "B/row"),
        ("server.app.write_wait_ms", "ms"),
        ("server.cache.hit_ratio", "ratio"),
        ("query.examined_per_returned", "ratio"),
        ("storage.fsyncs_per_batch", "count"),
        ("storage.vt_index_hit_ratio", "ratio"),
        ("server.unattributed_ms", "ms"),
        ("client.lag_ms", "ms"),
    ]
    units += [(f"overhead.{name}", unit) for name, unit in END_TO_END]
    return units


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Pass:
    """What the servers of one pass left behind, pooled."""

    cls: Type[Workload]
    stats: Stats
    setup_s: List[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: List[float] = field(default_factory=list)
    rss_per_row: List[float] = field(default_factory=list)
    windows: List[Tuple[int, int]] = field(default_factory=list)
    span_dirs: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))

    def end_to_end(self) -> Dict[str, float]:
        primary = self.stats.classes[self.cls.primary].summary()
        return {
            "setup_s": median(self.setup_s),
            "p50_ms": primary["p50"],
            "rss_bytes_per_row": median(self.rss_per_row),
        }


async def read_counters(admin: Connection) -> Dict[str, float]:
    snapshot = expect_json(await admin.get("/metrics"), "metrics")["metrics"]["counters"]
    return {name: snapshot.get(name, 0) for name in COUNTERS}


async def run_pass(
    cls: Type[Workload], seed: int, seconds: float, traced: bool, servers: int, run_dir: str
) -> Pass:
    """Start *servers* fresh servers one after another; set each up
    and time it for ``seconds / servers``, pooling what the client saw.

    Spreading the timed phase over several server processes averages
    out what differs between processes (memory layout, hash seeds) and
    slow drifts of the host, which one long phase would not.
    """
    result = Pass(cls, Stats(cls.nominal(seconds)))
    for index in range(servers):
        server_dir = os.path.join(run_dir, f"{'traced' if traced else 'plain'}-{index}")
        workload = cls(seed, server_dir, result.stats)
        server = ServerProcess(server_dir, traced, workload.server_args())
        conns: List[Connection] = []
        try:
            began = time.perf_counter()
            await server.start()
            admin = await Connection(server.host, server.port).connect()
            conns.append(admin)
            expect_json(await admin.get("/health"), "health")
            await workload.setup(admin)
            result.setup_s.append(time.perf_counter() - began)
            load = [
                await Connection(server.host, server.port).connect()
                for _ in range(max(1, min(workload.connections, nproc())))
            ]
            conns += load
            workload.stats = Stats(cls.nominal(0))  # warm-up requests are not measured
            await workload.warm(load)
            workload.stats = result.stats
            before = await read_counters(admin) if traced else {}
            for conn in load:
                conn.replied_at = 0.0
            with client_gc_held():
                cpu0, t0 = server.cpu_s(), time.perf_counter_ns()
                await workload.drive(load, seconds / servers)
                t1, cpu1 = time.perf_counter_ns(), server.cpu_s()
            result.elapsed_s += (t1 - t0) / 1e9
            result.cpu_s += cpu1 - cpu0
            result.windows.append((t0, t1))
            rss = server.peak_rss_mb()
            result.rss_mb.append(rss)
            result.rss_per_row.append(rss * 2**20 / workload.stored_rows())
            if traced:
                after = await read_counters(admin)
                for name in COUNTERS:
                    result.counters[name] += after[name] - before[name]
                result.span_dirs.append(await server.dump_spans())

            async def respawn() -> ServerProcess:
                reopened = ServerProcess(server_dir, False, workload.server_args())
                await reopened.start()
                return reopened

            await workload.verify(admin, server, respawn if index == servers - 1 else None)
        finally:
            for conn in conns:
                await conn.close()
            server.stop()
    return result


# -- per-layer attribution ---------------------------------------------------------------


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traced: Pass, plain: Pass) -> Dict[str, float]:
    stats = traced.stats
    requests = max(1, stats.completed)
    metrics: Dict[str, float] = {}
    for span in spanlib.LAYER_SPANS:
        metrics[f"{span}.self_ms"] = 0.0
        metrics[f"{span}.calls"] = 0.0
    top_level_cpu = 0
    waits: List[float] = []
    for span_dir, (t0, t1) in zip(traced.span_dirs, traced.windows):
        entries, all_spans = spanlib.load(span_dir)
        inside = [span for span in all_spans if t0 <= span[3] <= t1]
        selfs = spanlib.self_times(inside)
        for span_id, parent, entry, _t0, _t1, c0, c1 in inside:
            name = entries[entry][0]
            metrics[f"{name}.self_ms"] += selfs[span_id] / 1e6 / requests
            metrics[f"{name}.calls"] += 1 / requests
            if not parent:
                top_level_cpu += c1 - c0
        # Single writer: the k-th bulk decoded is the k-th batch appended.
        decoded = sorted(
            s[4] for s in all_spans if entries[s[2]][1] == "BulkRequest.from_json"
        )
        appended = sorted(
            s[3] for s in all_spans if entries[s[2]][1] == "TemporalRelation.append_many"
        )
        waits += [(a - d) / 1e6 for d, a in zip(decoded, appended) if t0 <= a <= t1]
    counters = traced.counters
    lag = stats.lag.samples
    metrics.update(
        {
            "server.protocol.bytes_per_row": ratio(stats.body_bytes, stats.body_rows),
            "server.app.write_wait_ms": ratio(sum(waits), len(waits)),
            "server.cache.hit_ratio": ratio(stats.cache_hits, stats.cacheable),
            "query.examined_per_returned": ratio(
                counters["query.elements_examined"], counters["query.elements_returned"]
            ),
            "storage.fsyncs_per_batch": ratio(
                counters["storage.logfile.fsyncs"], counters["server.writer.commits"]
            ),
            "storage.vt_index_hit_ratio": ratio(
                counters["storage.memory.vt_index_hits"],
                counters["storage.memory.vt_index_hits"]
                + counters["storage.memory.vt_index_misses"],
            ),
            "server.unattributed_ms": (traced.cpu_s * 1e9 - top_level_cpu) / 1e6 / requests,
            "client.lag_ms": (
                harness.percentile(lag, tail_percentile(len(lag))) if lag else 0.0
            ),
        }
    )
    traced_e2e, plain_e2e = traced.end_to_end(), plain.end_to_end()
    for name, _unit in END_TO_END:
        metrics[f"overhead.{name}"] = traced_e2e[name] - plain_e2e[name]
    return metrics


# -- output ------------------------------------------------------------------------------


def report(result: Pass, seed: int, seconds: float, label: str) -> None:
    """Print the environment and every named end-to-end metric."""
    cls, stats = result.cls, result.stats
    print(
        f"# {label} {cls.name}: seed {seed}, {seconds:g} s timed over "
        f"{len(result.setup_s)} server(s), nproc {nproc()}, "
        f"python {platform.python_version()}, {cls.flush_policy}"
    )
    for name, latencies in stats.classes.items():
        pct, nominal = latencies.tail_pct, latencies.nominal
        beyond = nominal - math.ceil(pct / 100 * nominal)
        print(
            f"#   {name}: {len(latencies.samples)} samples, tail = p{pct} "
            f"(sized for {nominal}, {beyond} beyond it)"
        )
    named = named_metrics(cls, stats, result.elapsed_s)
    named["setup_s"] = (median(result.setup_s), "s")
    named["server_rss_mb"] = (median(result.rss_mb), "MiB")
    for name, (value, unit) in sorted(named.items()):
        print(f"{name} {value:.6g} {unit}")


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )


async def run(
    arguments: argparse.Namespace, run_dir: str
) -> Tuple[Dict[str, Tuple[float, str]], int, int]:
    """The JSON metrics of one run, with requests attempted and failed."""
    cls = WORKLOADS[arguments.workload]
    seed, seconds = arguments.seed, float(arguments.seconds)
    if not arguments.trace:
        result = await run_pass(cls, seed, seconds, False, SERVERS, run_dir)
        report(result, seed, seconds, "untraced")
        values = result.end_to_end()
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        return metrics, result.stats.attempted, result.stats.failed
    plain = await run_pass(cls, seed, seconds / 2, False, 1, run_dir)
    report(plain, seed, seconds / 2, "untraced")
    traced = await run_pass(cls, seed, seconds / 2, True, 1, run_dir)
    report(traced, seed, seconds / 2, "traced")
    values = per_layer(traced, plain)
    return (
        {name: (values[name], unit) for name, unit in per_layer_units()},
        plain.stats.attempted + traced.stats.attempted,
        plain.stats.failed + traced.stats.failed,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not harness.program_present():
        print(f"no repro sources under {harness.SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    run_dir = os.path.join(harness.ROOT, ".e2ebench-run", f"{arguments.workload}-{os.getpid()}")
    # SIGTERM unwinds like an error, so every server is still stopped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(1))
    try:
        metrics, attempted, failed = asyncio.run(
            asyncio.wait_for(run(arguments, run_dir), RUN_BUDGET_S)
        )
    except AnswerMismatch as mismatch:
        print(f"answer check failed: {mismatch}", file=sys.stderr)
        emit(False, 1, 0, {})
        return 1
    except (RequestFailed, RuntimeError, asyncio.TimeoutError, OSError) as error:
        print(f"benchmark could not run: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass
    emit(True, max(1, attempted), failed, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
