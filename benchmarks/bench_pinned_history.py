"""Uncached pinned timeslices over HTTP do not slow as history grows.

Every server read is pinned: ``GET /relations/{name}/timeslice`` runs
``relation.valid_at(vt, as_of_tt=pin)``.  On an event relation the
memory engine answers it from the valid-time index -- a binary search
for ``vt``, then the candidates stored at the pin -- so its cost is
O(log n + matches), not O(history).

Two relations of the same shape, one ten times the other, are served
side by side with the response cache off (``cache_entries=0``), and the
client alternates never-repeated point timeslices between them so drift
on a shared host hits both sizes alike.  Each relation stores one to
three events at each valid time, preloaded in shuffled batches (the
index's merge path).  Reported per size: p50 and p99 latency; the gate
is ``pinned_history_ratio`` = p50(large) / p50(small), which must stay
near 1 (``benchmarks/thresholds.json``).  Every answer's row count is
checked against what was stored.

Run directly::

    PYTHONPATH=src python benchmarks/bench_pinned_history.py           # 40k vs 400k rows
    PYTHONPATH=src python benchmarks/bench_pinned_history.py --quick   # 4k vs 40k rows

The script exits non-zero when an answer is wrong or the ratio exceeds
its target; ``--emit-json`` also gates the results against
``benchmarks/thresholds.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import random
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

#: BENCH_*.json destination when --emit-json names no directory.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from repro.chronos.clock import LogicalClock
from repro.chronos.timestamp import Timestamp
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.server import ServerClient, ServerConfig, TemporalServer
from repro.storage.memory import MemoryEngine

READS = 400
WARM_READS = 20
PRELOAD_BATCH = 5_000
#: The gate's target: large-history p50 at most this multiple of the
#: small-history p50.
RATIO_TARGET = 1.5


def build_relation(rows: int, seed: int) -> Tuple[TemporalRelation, List[int]]:
    """About *rows* events, one to three per valid time, stored in
    shuffled batches; returns the relation and the count per valid time."""
    rng = random.Random(seed)
    counts: List[int] = []
    while sum(counts) < rows:
        counts.append(rng.randint(1, 3))
    preload = [k for k, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(preload)
    schema = TemporalSchema(name="events", time_varying=("v",))
    relation = TemporalRelation(
        schema, clock=LogicalClock(start=1), engine=MemoryEngine(), keep_backlog=False
    )
    for start in range(0, len(preload), PRELOAD_BATCH):
        relation.append_many(
            (f"obj-{(start + i) % 997}", Timestamp(k), {"v": start + i})
            for i, k in enumerate(preload[start : start + PRELOAD_BATCH])
        )
    return relation, counts


async def _serve_and_read(
    sizes: List[int], seed: int
) -> Tuple[Dict[int, List[float]], int]:
    """Alternate uncached timeslices between one server per size;
    returns latencies per size and the number of wrong answers."""
    servers = []
    clients = []
    counts: Dict[int, List[int]] = {}
    try:
        for rows in sizes:
            relation, counts[rows] = build_relation(rows, seed)
            server = TemporalServer(ServerConfig(port=0, metrics=False, cache_entries=0))
            server.attach_relation(relation)
            await server.start()
            servers.append(server)
            client = ServerClient("127.0.0.1", server.port)
            await client.connect()
            clients.append(client)
        rng = random.Random(seed + 1)
        latencies: Dict[int, List[float]] = {rows: [] for rows in sizes}
        wrong = 0
        for i in range(WARM_READS + READS):
            for rows, client in zip(sizes, clients):
                k = rng.randrange(len(counts[rows]))
                vt = Timestamp(k).microseconds
                started = time.perf_counter()
                response = await client.timeslice("events", vt=vt)
                elapsed = time.perf_counter() - started
                if response.json()["count"] != counts[rows][k]:
                    wrong += 1
                if i >= WARM_READS:
                    latencies[rows].append(elapsed)
        return latencies, wrong
    finally:
        for client in clients:
            await client.close()
        for server in servers:
            await server.stop()


def percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode: 4k vs 40k rows")
    parser.add_argument("--seed", type=int, default=1992)
    parser.add_argument(
        "--emit-json",
        nargs="?",
        const=REPO_ROOT,
        default=None,
        metavar="DIR",
        help="write BENCH_pinned_history.json and gate the results against "
        "benchmarks/thresholds.json",
    )
    args = parser.parse_args(argv)
    small, large = (4_000, 40_000) if args.quick else (40_000, 400_000)

    print(f"uncached pinned timeslice over HTTP, {small} vs {large} rows, {READS} reads each:")
    latencies, wrong = asyncio.run(_serve_and_read([small, large], args.seed))
    results: Dict[str, Any] = {"small_rows": small, "large_rows": large, "reads": READS}
    for label, rows in (("small", small), ("large", large)):
        results[f"{label}_p50_ms"] = percentile(latencies[rows], 0.50) * 1_000
        results[f"{label}_p99_ms"] = percentile(latencies[rows], 0.99) * 1_000
        print(
            f"  {rows:>7} rows: p50 {results[f'{label}_p50_ms']:.3f} ms, "
            f"p99 {results[f'{label}_p99_ms']:.3f} ms"
        )
    results["pinned_history_ratio"] = results["large_p50_ms"] / max(
        results["small_p50_ms"], 1e-9
    )
    results["answers_correct"] = 1.0 if wrong == 0 else 0.0
    print(f"  p50 ratio {results['pinned_history_ratio']:.2f}x (target <= {RATIO_TARGET}x)")

    failed = False
    if wrong:
        print(f"FAIL: {wrong} timeslice answers had the wrong row count")
        failed = True
    if results["pinned_history_ratio"] > RATIO_TARGET * 1.2:  # same 20% margin as CI
        print("FAIL: pinned timeslice latency grows with history")
        failed = True

    if args.emit_json is not None:
        from report import check_thresholds, write_bench_json

        write_bench_json(
            "pinned_history",
            results,
            parameters={"quick": args.quick, "seed": args.seed},
            directory=args.emit_json,
        )
        benchmark = "pinned_history_quick" if args.quick else "pinned_history"
        for line in check_thresholds(results, benchmark):
            print(f"FAIL: {line}")
            failed = True

    if not failed:
        print("pinned-history target met")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
