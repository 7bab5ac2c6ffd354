"""The benchmark's own checks.

    python3 -m pytest e2ebench/test_e2ebench.py -q

A tiny-size pass drives every workload (untraced and traced) through a
real ``repro serve`` process with all answer checks on; the unit tests
pin down the self-time arithmetic and the percentile rules.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(span_id, parent, t0, t1, c0=0, c1=0, entry=0):
    return (span_id, parent, entry, t0, t1, c0, c1)


def test_self_time_subtracts_children_once_even_when_they_overlap():
    recorded = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 40),
        span(3, 1, 30, 60),  # overlaps span 2 on [30, 40)
        span(4, 1, 55, 58),  # inside span 3
        span(5, 1, 90, 130),  # runs past its parent's end
        span(6, 2, 12, 20),  # a grandchild: only its own parent loses it
    ]
    selfs = spans.self_times(recorded)
    assert selfs[1] == 100 - (60 - 10) - (100 - 90)
    assert selfs[2] == 30 - 8
    assert selfs[3] == 30
    assert selfs[6] == 8


def test_covered_clips_to_the_parent_and_merges_overlaps():
    assert spans.covered([], 0, 10) == 0
    assert spans.covered([(-5, 3), (2, 6), (8, 20)], 0, 10) == 6 + 2
    assert spans.covered([(1, 9), (2, 3), (4, 5)], 0, 10) == 8


def test_tracer_nests_spans_per_thread_and_swallows_same_name_calls():
    tracer = spans.Tracer()
    outer = tracer.entry("relation.read", "outer")
    inner = tracer.entry("storage.read", "inner")
    again = tracer.entry("storage.read", "mirror")

    def mirror():
        yield from range(3)

    traced_mirror = spans._wrap(tracer, again, mirror, lazy=True)
    traced_inner = spans._wrap(tracer, inner, lambda: traced_mirror(), lazy=True)
    traced_outer = spans._wrap(tracer, outer, lambda: list(traced_inner()), lazy=False)
    assert traced_outer() == [0, 1, 2]
    flat = list(tracer.spans)
    recorded = [tuple(flat[i : i + spans.WIDTH]) for i in range(0, len(flat), spans.WIDTH)]
    assert [entry for _id, _parent, entry, *_ in recorded] == [inner, outer]
    (inner_id, inner_parent, *_), (outer_id, outer_parent, *_) = recorded
    assert inner_parent == outer_id and outer_parent == 0


def test_storage_reads_inside_an_append_belong_to_the_append():
    tracer = spans.Tracer()
    append = tracer.entry("relation.append", "append_many")
    read = tracer.entry("storage.read", "valid_at")
    traced_read = spans._wrap(tracer, read, lambda: iter([1]), lazy=True)
    traced_append = spans._wrap(tracer, append, lambda: list(traced_read()), lazy=False)
    assert traced_append() == [1]
    assert len(tracer.spans) == spans.WIDTH and tracer.spans[2] == append


def test_percentiles_are_nearest_rank():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 50) == 50
    assert harness.percentile(samples, 90) == 90
    assert harness.percentile(samples, 99) == 99
    assert harness.percentile([7.0], 99) == 7.0
    assert harness.tail_percentile(1000) == 99
    assert harness.tail_percentile(200) == 95
    assert harness.tail_percentile(100) == 90


# -- a tiny pass through every workload ---------------------------------------------------


class TinyIngest(workloads.IngestKeyed):
    BATCH_ROWS = 200
    ROWS_PER_KEY = 20


class TinyReads(workloads.PinnedReads):
    VALID_TIMES = 300
    PRELOAD_BATCH = 250
    WARM_READS = 2


class TinyMixed(workloads.MixedServing):
    PRELOAD = 200
    PRELOAD_BATCH = 100
    BATCH_ROWS = 20


class WrongLedger(TinyReads):
    """Believes every valid time holds one row more than it does."""

    async def setup(self, admin):
        await super().setup(admin)
        self.counts = [count + 1 for count in self.counts]


@pytest.fixture
def run_dir():
    path = os.path.join(harness.ROOT, ".e2ebench-run", f"test-{os.getpid()}", "run")
    yield path
    shutil.rmtree(os.path.dirname(path), ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(os.path.dirname(path)))
    except OSError:
        pass  # another run is using it


@pytest.mark.parametrize("cls", [TinyIngest, TinyReads, TinyMixed], ids=lambda c: c.name)
def test_tiny_pass_checks_every_answer(cls, run_dir):
    async def both():
        plain = await run.run_pass(cls, 7, 1.0, False, 2, run_dir)
        traced = await run.run_pass(cls, 7, 1.0, True, 1, run_dir)
        return plain, traced

    plain, traced = asyncio.run(both())
    assert len(plain.setup_s) == 2
    for result in (plain, traced):
        assert result.stats.failed == 0
        assert result.stats.completed > 0
        assert all(value > 0 for value in result.end_to_end().values())
    if cls is TinyIngest:
        extra = plain.stats.extra
        assert len(extra["recovery_s"][1]) == 1 and len(extra["wal_bytes_per_row"][1]) == 2
    layers = run.per_layer(traced, plain)
    assert set(layers) == {name for name, _unit in run.per_layer_units()}
    primary_span = {
        "ingest_keyed": "relation.append",
        "pinned_reads": "storage.read",
        "mixed_serving": "server.protocol.encode",
    }[cls.name]
    assert layers[f"{primary_span}.calls"] > 0


def test_a_wrong_answer_fails_the_run(run_dir):
    with pytest.raises(harness.AnswerMismatch):
        asyncio.run(run.run_pass(WrongLedger, 7, 1.0, False, 1, run_dir))
