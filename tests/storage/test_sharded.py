"""Sharded engine: routing, pruning, parity, rebalance crash matrix.

Four claims, four suites:

* **Unit** -- hash/range routing distributes and stays consistent with
  the partitioner; the gathered scan is globally tt-ordered and
  identical to a single store; a range-partitioned point timeslice
  routes exactly one shard (``explain()`` and the
  ``storage.shards.*`` counters agree); specialized strategy names are
  unchanged by sharding; ``config.shards`` reroutes the default engine;
  vacuum preserves the topology; the server and CLI wire ``--shards``.
* **Durable** -- a sharded directory reopens to the same contents (on
  the microsecond time-line; granularity reprs may differ) and a
  durable rebalance survives a close/reopen.
* **Differential** (Hypothesis) -- one random workload replayed through
  a single store, a hash-sharded topology, and a range-sharded one,
  with vacuum and rebalance/split interleaved, answers every probe
  identically.
* **Crash matrix** -- a rebalance interrupted at every manifest byte
  offset and every rename subset recovers to exactly the pre- or
  post-move assignment, keyed on whether the single commit record made
  it down whole.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, strategies as st

from repro import config
from repro.chronos.clock import LogicalClock, SimulatedWallClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, Timestamp
from repro.core.constraints import ConstraintViolation
from repro.observability import metrics
from repro.query import Planner, Rollback, Scan, ValidTimeslice
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.memory import MemoryEngine
from repro.storage.sharded import (
    MANIFEST_NAME,
    HashPartitioner,
    RangePartitioner,
    ShardedEngine,
    shard_file_name,
)
from repro.storage.vacuum import vacuum_relation
from tests.strategies import OBJECTS, insert_rows, json_safe_attributes

#: Valid times live in [0, 999] ticks; clocks start at 1000, so the
#: ``retroactive`` declaration used by the differential suite holds.
CLOCK_START = 1000
VT_TICKS = st.integers(min_value=0, max_value=999)

#: Four range shards over the [0, 999]-second valid-time span.
RANGE_BOUNDARIES = [250_000_000, 500_000_000, 750_000_000]


def make_relation(engine=None, specializations=()) -> TemporalRelation:
    schema = TemporalSchema(
        name="sharded",
        time_varying=("reading",),
        specializations=list(specializations),
    )
    return TemporalRelation(schema, clock=LogicalClock(start=CLOCK_START), engine=engine)


def seed_rows(relation: TemporalRelation, count: int = 48) -> None:
    """Deterministic workload: varied objects, vt spread over the full
    range span, a few logical deletions."""
    with relation.bulk() as batch:
        for i in range(count):
            batch.insert(f"o{i % 8}", Timestamp((37 * i) % 1000), {"reading": i})
    current = sorted(relation.current(), key=lambda e: e.element_surrogate)
    for victim in current[:: max(1, count // 6)]:
        relation.delete(victim.element_surrogate)


def canonical(elements) -> list:
    """Engine-independent element view on the microsecond time-line
    (granularity reprs differ across a durable round-trip)."""
    rows = []
    for element in elements:
        vt = element.vt
        vt_key = (
            (vt.start.microseconds, vt.end.microseconds)
            if isinstance(vt, Interval)
            else vt.microseconds
        )
        rows.append(
            (
                element.element_surrogate,
                element.object_surrogate,
                element.tt_start.microseconds,
                None if element.tt_stop is FOREVER else element.tt_stop.microseconds,
                vt_key,
                tuple(sorted(element.time_varying.items(), key=lambda kv: kv[0])),
            )
        )
    return sorted(rows)


def hash_engine(shards: int = 4) -> ShardedEngine:
    return ShardedEngine(shard_count=shards)


def range_engine() -> ShardedEngine:
    return ShardedEngine(
        shard_count=len(RANGE_BOUNDARIES) + 1,
        partitioner=RangePartitioner(list(RANGE_BOUNDARIES)),
    )


def assignment(engine: ShardedEngine) -> dict:
    """Per-shard element-surrogate membership (the rebalance unit)."""
    return {
        index: frozenset(element.element_surrogate for element in shard.scan())
        for index, shard in enumerate(engine.shards)
    }


class TestRoutingAndGather:
    def test_hash_routing_distributes_and_matches_partitioner(self):
        relation = make_relation(hash_engine())
        seed_rows(relation)
        engine = relation.engine
        populated = [index for index, members in assignment(engine).items() if members]
        assert len(populated) >= 2, "8 objects over 4 shards should spread"
        for index, shard in enumerate(engine.shards):
            for element in shard.scan():
                assert engine.partitioner.shard_of(element) == index
                assert engine.shard_of(element) == index

    def test_range_routing_respects_boundaries(self):
        relation = make_relation(range_engine())
        seed_rows(relation)
        engine = relation.engine
        for index, shard in enumerate(engine.shards):
            for element in shard.scan():
                span_lo = 0 if index == 0 else RANGE_BOUNDARIES[index - 1]
                assert element.vt.microseconds >= span_lo
                if index < len(RANGE_BOUNDARIES):
                    assert element.vt.microseconds < RANGE_BOUNDARIES[index]

    @pytest.mark.parametrize("factory", [hash_engine, range_engine])
    def test_gathered_reads_identical_to_single_store(self, factory):
        single = make_relation(MemoryEngine())
        sharded = make_relation(factory())
        seed_rows(single)
        seed_rows(sharded)
        assert canonical(sharded.all_elements()) == canonical(single.all_elements())
        assert canonical(sharded.current()) == canonical(single.current())
        # Gather order is the canonical tt order, element for element.
        assert [e.element_surrogate for e in sharded.engine.scan()] == [
            e.element_surrogate for e in single.engine.scan()
        ]
        tts = [e.tt_start.microseconds for e in sharded.engine.scan()]
        assert tts == sorted(tts) and len(set(tts)) == len(tts)

    def test_tt_uniqueness_enforced_across_shards(self):
        engine = hash_engine()
        relation = make_relation(engine)
        relation.insert("o1", Timestamp(5), {"reading": 1})
        element = relation.all_elements()[0]
        stale = type(element)(
            element_surrogate=element.element_surrogate + 1,
            object_surrogate="o2",
            vt=Timestamp(6),
            tt_start=element.tt_start,
            time_varying={"reading": 2},
        )
        with pytest.raises(ValueError):
            engine.append(stale)


class TestPruningAndObservability:
    def test_point_timeslice_routes_exactly_one_range_shard(self):
        single = make_relation(MemoryEngine())
        sharded = make_relation(range_engine())
        seed_rows(single)
        seed_rows(sharded)
        probe = Timestamp(100)  # owned by shard 0 of four
        report = sharded.explain(ValidTimeslice(Scan(sharded), probe))
        assert report.shards_routed == 1
        assert report.shards_pruned == 3
        assert "shards" in report.render()
        assert any("scatter-gather" in decision for decision in report.decisions)
        assert canonical(sharded.valid_at(probe)) == canonical(single.valid_at(probe))

    def test_every_non_intersecting_shard_is_pruned(self):
        """Each range shard owns one vt span: a probe inside span k must
        route shard k alone, for every k."""
        sharded = make_relation(range_engine())
        seed_rows(sharded)
        engine = sharded.engine
        for k in range(4):
            probe = Timestamp(250 * k + 100)
            before = engine.routing_totals()
            plan = Planner(sharded).plan(ValidTimeslice(Scan(sharded), probe))
            plan.execute()
            after = engine.routing_totals()
            assert plan.shard_stats is not None
            assert plan.shard_stats.routed == after[0] - before[0] == 1
            assert plan.shard_stats.pruned == after[1] - before[1] == 3

    def test_shard_metrics_counters(self):
        sharded = make_relation(range_engine())
        seed_rows(sharded)
        with metrics.enabled_scope(fresh=True) as registry:
            sharded.valid_at(Timestamp(100))
            counters = registry.snapshot()["counters"]
        assert counters["storage.shards.queries"] >= 1
        assert counters["storage.shards.routed"] >= 1
        assert counters["storage.shards.pruned"] >= 3

    def test_rollback_prunes_by_transaction_envelope(self):
        """A rollback earlier than every element in a shard skips it."""
        sharded = make_relation(hash_engine(2))
        seed_rows(sharded, count=12)
        engine = sharded.engine
        tt_floor = min(e.tt_start.microseconds for e in engine.scan())
        before = engine.routing_totals()
        results = list(engine.as_of(Timestamp(tt_floor - 1, "microsecond")))
        after = engine.routing_totals()
        assert results == []
        assert after[0] - before[0] == 0, "nothing alive that early: all pruned"


def build_events(specializations, offsets, engine=None):
    schema = TemporalSchema(name="r", specializations=list(specializations))
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock, keep_backlog=False, engine=engine)
    for i, offset in enumerate(offsets):
        clock.advance_to(Timestamp(10 * i))
        relation.insert(f"o{i % 8}", Timestamp(10 * i + offset), {})
    return relation


class TestStrategyPreservation:
    """Sharding must not change which specialized strategy plans: the
    global orderings hold on every tt-subsequence, so each shard runs
    the same fast path the single store would."""

    CASES = [
        (["degenerate"], [0] * 30, "degenerate-rollback"),
        (["globally non-decreasing"], [3] * 30, "monotone-binary-search"),
        (["strongly bounded(5s, 5s)"], [(-1) ** i * 4 for i in range(30)], "bounded-tt-window"),
        ([], [(-1) ** i * 4 for i in range(30)], "engine-index"),
    ]

    @pytest.mark.parametrize("specializations,offsets,expected", CASES)
    def test_timeslice_strategy_unchanged(self, specializations, offsets, expected):
        single = build_events(specializations, offsets)
        sharded = build_events(specializations, offsets, engine=hash_engine())
        query_of = lambda rel: ValidTimeslice(Scan(rel), Timestamp(103))  # noqa: E731
        single_plan = Planner(single).plan(query_of(single))
        sharded_plan = Planner(sharded).plan(query_of(sharded))
        assert single_plan.strategy == expected
        assert sharded_plan.strategy == expected
        assert canonical(sharded_plan.execute()) == canonical(single_plan.execute())

    def test_rollback_strategy_unchanged(self):
        single = build_events([], [0] * 20)
        sharded = build_events([], [0] * 20, engine=hash_engine())
        for relation in (single, sharded):
            plan = Planner(relation).plan(Rollback(Scan(relation), Timestamp(95)))
            assert plan.strategy == "rollback-prefix"


class TestTopologyPlumbing:
    def test_shards_setting_reroutes_default_engine(self):
        with config.override(shards=3):
            relation = make_relation()
        assert getattr(relation.engine, "is_sharded", False)
        assert relation.engine.shard_count == 3
        with config.override(shards=0):
            assert not getattr(make_relation().engine, "is_sharded", False)

    def test_vacuum_preserves_sharded_topology(self):
        relation = make_relation(range_engine())
        seed_rows(relation)
        closed = sum(1 for e in relation.all_elements() if e.tt_stop is not FOREVER)
        assert closed > 0
        survivors = canonical(relation.current())
        report = vacuum_relation(relation, Timestamp(10_000))
        assert report.purged == closed
        assert getattr(relation.engine, "is_sharded", False)
        assert relation.engine.shard_count == 4
        assert isinstance(relation.engine.partitioner, RangePartitioner)
        assert canonical(relation.current()) == survivors

    def test_rebalance_moves_hash_bucket(self):
        relation = make_relation(hash_engine())
        seed_rows(relation)
        engine = relation.engine
        before = canonical(relation.all_elements())
        bucket = engine.partitioner.bucket_of("o0")
        source = engine.partitioner.assignment[bucket]
        target = (source + 1) % engine.shard_count
        moved = engine.rebalance(bucket, target)
        assert moved > 0
        assert canonical(relation.all_elements()) == before
        for element in relation.all_elements():
            if element.object_surrogate == "o0":
                assert engine.shard_of(element) == target

    def test_split_moves_range_boundary(self):
        relation = make_relation(range_engine())
        seed_rows(relation)
        engine = relation.engine
        before = canonical(relation.all_elements())
        moved = engine.split(0, 150_000_000)
        assert moved > 0
        assert canonical(relation.all_elements()) == before
        for element in engine.shards[0].scan():
            assert element.vt.microseconds < 150_000_000

    def test_queries_replan_after_rebalance(self):
        relation = make_relation(range_engine())
        seed_rows(relation)
        probe = Timestamp(300)
        before = canonical(relation.valid_at(probe))
        relation.engine.split(0, 350_000_000)  # probe's span changes owner
        assert canonical(relation.valid_at(probe)) == before

    def test_server_builds_sharded_engines(self, tmp_path):
        from repro.server import ServerConfig, TemporalServer

        server = TemporalServer(ServerConfig(shards=4, data_dir=str(tmp_path)))
        memory = server._build_engine("memory", "m")
        assert getattr(memory, "is_sharded", False) and memory.shard_count == 4
        durable = server._build_engine("logfile", "d")
        try:
            assert getattr(durable, "is_sharded", False)
            assert os.path.isdir(os.path.join(str(tmp_path), "d.shards"))
        finally:
            durable.close()

    def test_cli_serve_parses_shards_flag(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        assert parser.parse_args(["serve", "--shards", "4"]).shards == 4
        assert parser.parse_args(["serve"]).shards == 0


class TestDurableSharded:
    def test_reopen_round_trip(self, tmp_path):
        engine = ShardedEngine(data_dir=str(tmp_path), shard_count=3)
        relation = make_relation(engine)
        seed_rows(relation)
        expected = canonical(relation.all_elements())
        placement = assignment(engine)
        engine.close()
        reopened = ShardedEngine(data_dir=str(tmp_path))
        try:
            assert canonical(reopened.scan()) == expected
            assert assignment(reopened) == placement
            assert reopened.shard_count == 3
        finally:
            reopened.close()

    def test_durable_rebalance_survives_reopen(self, tmp_path):
        engine = ShardedEngine(data_dir=str(tmp_path), shard_count=3)
        relation = make_relation(engine)
        seed_rows(relation)
        expected = canonical(relation.all_elements())
        bucket = engine.partitioner.bucket_of("o3")
        target = (engine.partitioner.assignment[bucket] + 1) % 3
        assert engine.rebalance(bucket, target) > 0
        placement = assignment(engine)
        engine.close()
        reopened = ShardedEngine(data_dir=str(tmp_path))
        try:
            assert canonical(reopened.scan()) == expected
            assert assignment(reopened) == placement
            assert reopened.partitioner.assignment[bucket] == target
        finally:
            reopened.close()


# -- differential: one workload, three topologies, one answer --------------------

POISON_VT = Timestamp(10_000_000)


@st.composite
def sharded_scripts(draw):
    """Inserts, batches, rejected batches, deletions, vacuum, and
    physical rebalance/split moves, plus probe coordinates."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(
            st.sampled_from(
                ["insert", "batch", "reject", "delete", "rebalance", "vacuum"]
            )
        )
        if kind == "insert":
            ops.append(
                ("insert", draw(OBJECTS), draw(VT_TICKS), draw(json_safe_attributes()))
            )
        elif kind == "batch":
            ops.append(("batch", draw(insert_rows(min_size=1, max_size=6, vt_ticks=VT_TICKS))))
        elif kind == "reject":
            rows = draw(insert_rows(min_size=0, max_size=4, vt_ticks=VT_TICKS))
            rows.insert(
                draw(st.integers(min_value=0, max_value=len(rows))),
                ("poison", POISON_VT, {"reading": -1}),
            )
            ops.append(("reject", rows))
        elif kind == "delete":
            ops.append(("delete", draw(st.integers(min_value=0, max_value=31))))
        elif kind == "rebalance":
            ops.append(
                (
                    "rebalance",
                    draw(st.integers(min_value=0, max_value=63)),
                    draw(st.integers(min_value=0, max_value=3)),
                    draw(st.integers(min_value=0, max_value=2)),
                    draw(st.integers(min_value=-99, max_value=99)),
                )
            )
        else:
            ops.append(("vacuum",))
    probe_tts = draw(
        st.lists(
            st.integers(min_value=CLOCK_START - 2, max_value=CLOCK_START + 80),
            min_size=1,
            max_size=4,
        )
    )
    probe_vts = draw(st.lists(VT_TICKS, min_size=1, max_size=4))
    return ops, probe_tts, probe_vts


def replay(relation: TemporalRelation, ops) -> None:
    """Replay a script; physical ops translate per topology and are
    no-ops on the single store (they must never change any answer)."""
    for op in ops:
        if op[0] == "insert":
            _, object_surrogate, vt_tick, attributes = op
            relation.insert(object_surrogate, Timestamp(vt_tick), attributes)
        elif op[0] == "batch":
            relation.append_many(op[1])
        elif op[0] == "reject":
            with pytest.raises(ConstraintViolation):
                relation.append_many(op[1])
        elif op[0] == "delete":
            current = sorted(relation.current(), key=lambda e: e.element_surrogate)
            if current:
                relation.delete(current[op[1] % len(current)].element_surrogate)
        elif op[0] == "rebalance":
            _, bucket, target, boundary, delta = op
            engine = relation.engine
            if not getattr(engine, "is_sharded", False):
                continue
            if isinstance(engine.partitioner, HashPartitioner):
                engine.rebalance(
                    bucket % engine.partitioner.buckets, target % engine.shard_count
                )
            else:
                engine.split(boundary, RANGE_BOUNDARIES[boundary] + delta * 1_000_000)
        else:
            vacuum_relation(relation, Timestamp(1_000_000))


class TestShardedDifferential:
    """The sharded topologies are drop-ins: every probe agrees with the
    single store element for element, through vacuum and rebalances."""

    @given(script=sharded_scripts())
    def test_three_topologies_one_answer(self, script):
        ops, probe_tts, probe_vts = script
        single = make_relation(MemoryEngine(), specializations=["retroactive"])
        hashed = make_relation(hash_engine(), specializations=["retroactive"])
        ranged = make_relation(range_engine(), specializations=["retroactive"])
        for relation in (single, hashed, ranged):
            replay(relation, ops)
        for mirror in (hashed, ranged):
            assert canonical(mirror.all_elements()) == canonical(single.all_elements())
            assert canonical(mirror.current()) == canonical(single.current())
            for tt_tick in probe_tts:
                tt = Timestamp(tt_tick)
                assert canonical(mirror.as_of(tt)) == canonical(single.as_of(tt))
            for vt_tick in probe_vts:
                vt = Timestamp(vt_tick)
                assert canonical(mirror.valid_at(vt)) == canonical(single.valid_at(vt))
                window = Interval(vt, Timestamp(vt_tick + 40))
                assert canonical(mirror.valid_overlapping(window)) == canonical(
                    single.valid_overlapping(window)
                )
                as_of_tt = Timestamp(probe_tts[0])
                assert canonical(mirror.valid_at(vt, as_of_tt=as_of_tt)) == canonical(
                    single.valid_at(vt, as_of_tt=as_of_tt)
                )


# -- crash matrix: a rebalance interrupted everywhere ----------------------------


def read_dir(path: str) -> dict:
    return {
        name: open(os.path.join(path, name), "rb").read()
        for name in sorted(os.listdir(path))
    }


def write_dir(path: str, files: dict) -> None:
    os.makedirs(path)
    for name, data in files.items():
        with open(os.path.join(path, name), "wb") as handle:
            handle.write(data)


class TestRebalanceCrashMatrix:
    """Crash a durable rebalance at every byte of the manifest commit
    record and at every rename subset; recovery must land on exactly
    the pre-move or post-move per-shard assignment -- never between."""

    @pytest.fixture()
    def states(self, tmp_path, monkeypatch):
        live = os.path.join(str(tmp_path), "live")
        engine = ShardedEngine(data_dir=live, shard_count=3)
        relation = make_relation(engine)
        seed_rows(relation, count=30)
        engine.sync()
        pre_files = read_dir(live)
        pre_assignment = assignment(engine)
        logical = canonical(engine.scan())

        # Snapshot the directory at the first staged->live rename: the
        # commit record is durably down, no rename has happened yet.
        commit_files = {}
        real_replace = os.replace

        def capturing_replace(src, dst):
            if not commit_files:
                commit_files.update(read_dir(live))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", capturing_replace)
        bucket = engine.partitioner.bucket_of("o0")
        target = (engine.partitioner.assignment[bucket] + 1) % 3
        assert engine.rebalance(bucket, target) > 0
        monkeypatch.setattr(os, "replace", real_replace)

        engine.sync()
        post_assignment = assignment(engine)
        engine.close()
        assert commit_files, "the rebalance never renamed anything"
        assert post_assignment != pre_assignment
        staged_names = sorted(
            name[: -len(".staged")]
            for name in commit_files
            if name.endswith(".staged")
        )
        assert staged_names, "no staged shard logs captured at the commit point"
        return {
            "pre_files": pre_files,
            "pre_assignment": pre_assignment,
            "post_assignment": post_assignment,
            "logical": logical,
            "commit_files": commit_files,
            "staged_names": staged_names,
        }

    def check_recovery(self, crash_dir: str, states: dict, committed: bool) -> None:
        recovered = ShardedEngine(data_dir=crash_dir)
        try:
            expected = (
                states["post_assignment"] if committed else states["pre_assignment"]
            )
            assert assignment(recovered) == expected
            assert canonical(recovered.scan()) == states["logical"]
            for entry in os.listdir(crash_dir):
                assert not entry.endswith(".staged"), "recovery must clear the stage"
        finally:
            recovered.close()

    def test_crash_at_every_manifest_byte(self, tmp_path, states):
        """Old logs + full stage + the commit record cut at byte k: only
        the whole record commits the move."""
        pre_manifest = states["pre_files"][MANIFEST_NAME]
        delta = states["commit_files"][MANIFEST_NAME][len(pre_manifest):]
        assert delta, "the rebalance appended nothing to the manifest"
        for k in range(len(delta) + 1):
            crash_dir = os.path.join(str(tmp_path), f"crash-{k}")
            files = dict(states["pre_files"])
            for name, data in states["commit_files"].items():
                if name.endswith(".staged"):
                    files[name] = data
            files[MANIFEST_NAME] = pre_manifest + delta[:k]
            write_dir(crash_dir, files)
            self.check_recovery(crash_dir, states, committed=(k == len(delta)))

    def test_crash_at_every_rename_subset(self, tmp_path, states):
        """Committed record with any prefix of the renames applied:
        recovery finishes the rest idempotently."""
        staged_names = states["staged_names"]
        for done in range(len(staged_names) + 1):
            crash_dir = os.path.join(str(tmp_path), f"renamed-{done}")
            files = dict(states["commit_files"])
            for name in staged_names[:done]:
                files[name] = files.pop(name + ".staged")
            write_dir(crash_dir, files)
            self.check_recovery(crash_dir, states, committed=True)

    def test_uncommitted_stage_alone_is_discarded(self, tmp_path, states):
        """Stage written, manifest untouched (crash before the commit
        append even started): pure pre-move recovery."""
        crash_dir = os.path.join(str(tmp_path), "staged-only")
        files = dict(states["pre_files"])
        for name, data in states["commit_files"].items():
            if name.endswith(".staged"):
                files[name] = data
        write_dir(crash_dir, files)
        self.check_recovery(crash_dir, states, committed=False)
