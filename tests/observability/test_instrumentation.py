"""Engine, planner, and constraint call sites report the right counters."""

import os
import tempfile

import pytest

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.observability import metrics
from repro.query import Planner, Scan, ValidTimeslice
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.logfile import LogFileEngine
from repro.storage.memory import MemoryEngine
from repro.storage.sqlite_backend import SQLiteEngine


@pytest.fixture
def registry():
    with metrics.enabled_scope(fresh=True) as reg:
        yield reg


def build(engine=None, specializations=()):
    schema = TemporalSchema(name="r", specializations=list(specializations))
    clock = SimulatedWallClock(start=0)
    return (
        TemporalRelation(schema, clock=clock, keep_backlog=False, engine=engine),
        clock,
    )


def rows(count):
    return [("o", Timestamp(10 * i), {}) for i in range(count)]


class TestMemoryEngine:
    def test_insert_and_scan_counters(self, registry):
        relation, clock = build()
        for i in range(5):
            clock.advance_to(Timestamp(10 * i))
            relation.insert("o", Timestamp(10 * i), {})
        list(relation.engine.scan())
        counters = registry.snapshot()["counters"]
        assert counters["relation.inserts"] == 5
        assert counters["storage.memory.appends"] == 5
        assert counters["storage.memory.rows_scanned"] == 5

    def test_batch_counters(self, registry):
        relation, _clock = build()
        relation.append_many(rows(100))
        counters = registry.snapshot()["counters"]
        assert counters["relation.batches"] == 1
        assert counters["relation.batch_rows"] == 100
        assert counters["storage.memory.batch_appends"] == 1
        assert counters["storage.memory.rows_appended"] == 100

    def test_vt_index_hit_and_miss(self, registry):
        relation, _clock = build(engine=MemoryEngine())
        relation.append_many(rows(10))
        list(relation.engine.valid_at(Timestamp(50)))
        counters = registry.snapshot()["counters"]
        assert counters.get("storage.memory.vt_index_hits", 0) == 1
        # A pinned event read takes its candidates from the same index.
        window = Interval(Timestamp(0), Timestamp(50))
        list(relation.engine.valid_at(Timestamp(50), as_of_tt=Timestamp(5)))
        list(relation.engine.valid_overlapping(window, as_of_tt=Timestamp(5)))
        counters = registry.snapshot()["counters"]
        assert counters.get("storage.memory.vt_index_hits", 0) == 3
        assert counters.get("storage.memory.vt_index_misses", 0) == 0

    def test_vt_index_misses(self, registry):
        # No index at all: every read scans.
        unindexed, _clock = build(engine=MemoryEngine(maintain_vt_index=False))
        unindexed.append_many(rows(10))
        list(unindexed.engine.valid_at(Timestamp(50), as_of_tt=Timestamp(5)))
        assert registry.snapshot()["counters"]["storage.memory.vt_index_misses"] == 1
        # Interval relations: the interval tree is not safe beside a
        # writer, so a pinned read scans the tt prefix instead.
        schema = TemporalSchema(name="i", valid_time_kind=ValidTimeKind.INTERVAL)
        intervals = TemporalRelation(
            schema,
            clock=SimulatedWallClock(start=0),
            keep_backlog=False,
            engine=MemoryEngine(),
        )
        intervals.append_many(
            [("o", Interval(Timestamp(10 * i), Timestamp(10 * i + 20)), {}) for i in range(10)]
        )
        list(intervals.engine.valid_at(Timestamp(50), as_of_tt=Timestamp(5)))
        counters = registry.snapshot()["counters"]
        assert counters["storage.memory.vt_index_misses"] == 2
        assert counters.get("storage.memory.vt_index_hits", 0) == 0


class TestSQLiteEngine:
    def test_batch_is_one_commit(self, registry):
        relation, _clock = build(engine=SQLiteEngine())
        relation.append_many(rows(50))
        counters = registry.snapshot()["counters"]
        assert counters["storage.sqlite.commits"] == 1
        assert counters["storage.sqlite.rows_appended"] == 50

    def test_scan_counts_rows(self, registry):
        relation, _clock = build(engine=SQLiteEngine())
        relation.append_many(rows(7))
        list(relation.engine.scan())
        assert registry.snapshot()["counters"]["storage.sqlite.rows_scanned"] == 7


class TestLogFileEngine:
    def test_batch_is_one_fsync(self, registry):
        with tempfile.TemporaryDirectory() as tmp:
            engine = LogFileEngine(os.path.join(tmp, "r.jsonl"))
            relation, _clock = build(engine=engine)
            relation.append_many(rows(20))
            counters = registry.snapshot()["counters"]
            assert counters["storage.logfile.fsyncs"] == 1
            assert counters["storage.logfile.bytes_written"] > 0
            engine.close()


class TestPlannerCounters:
    def test_plan_and_execute_counters(self, registry):
        relation, _clock = build(specializations=["degenerate"])
        relation.append_many([("o", Timestamp(0), {})])
        # degenerate requires vt == tt; rebuild rows accordingly
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), Timestamp(0)))
        plan.execute()
        counters = registry.snapshot()["counters"]
        assert counters["query.planned.degenerate-rollback"] == 1
        assert counters["query.plans.degenerate-rollback"] == 1
        assert "query.elements_examined" in counters
        assert "query.elements_returned" in counters
        histograms = registry.snapshot()["histograms"]
        assert histograms["query.execute_seconds.degenerate-rollback"]["count"] == 1


class TestConstraintCounters:
    def test_batch_checks_and_shadow_swap(self, registry):
        relation, _clock = build(specializations=["retroactive"])
        relation.append_many(
            [("o", Timestamp(-100 + i), {}) for i in range(10)]
        )
        counters = registry.snapshot()["counters"]
        assert counters["constraints.checks"] == 10  # one monitor x 10 elements
        assert counters["constraints.shadow_swaps"] == 1
        assert counters.get("constraints.violations", 0) == 0

    def test_per_element_checks(self, registry):
        relation, clock = build(specializations=["retroactive"])
        clock.advance_to(Timestamp(100))
        relation.insert("o", Timestamp(50), {})
        assert registry.snapshot()["counters"]["constraints.checks"] == 1


class TestDisabledIsFree:
    def test_nothing_recorded_when_disabled(self):
        metrics.disable()
        before = metrics.registry().snapshot()
        relation, _clock = build()
        relation.append_many(rows(10))
        assert metrics.registry().snapshot() == before
