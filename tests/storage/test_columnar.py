"""The columnar stamp sidecar: encoding, kernels, late materialization
-- and the differential property that the kernels answer exactly what
the object predicates do.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, Timestamp
from repro.query import (
    BitemporalSlice,
    Rollback,
    Scan,
    ValidOverlap,
    ValidTimeslice,
    operators,
)
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.columnar import (
    NEG_SENTINEL,
    POS_SENTINEL,
    StampColumns,
    positions_live,
    positions_overlapping,
    positions_stored_at,
    positions_valid_at,
)
from repro.storage.memory import MemoryEngine
from repro.storage.sharded import ShardedEngine
from tests.storage.test_segments import (
    all_answers,
    oracle_answers,
    replay,
    segment_workloads,
    signature,
)


def build_events(
    offsets, specializations=(), segment_size=8, vt_index=False, engine=None
):
    schema = TemporalSchema(name="r", specializations=list(specializations))
    clock = SimulatedWallClock(start=0)
    if engine is None:
        engine = MemoryEngine(maintain_vt_index=vt_index, segment_size=segment_size)
    relation = TemporalRelation(schema, clock=clock, keep_backlog=False, engine=engine)
    for i, offset in enumerate(offsets):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("o", Timestamp(10 * i + offset), {})
    return relation, clock


def build_intervals(spans, segment_size=8):
    schema = TemporalSchema(name="r", valid_time_kind=ValidTimeKind.INTERVAL)
    clock = SimulatedWallClock(start=0)
    engine = MemoryEngine(maintain_vt_index=False, segment_size=segment_size)
    relation = TemporalRelation(schema, clock=clock, keep_backlog=False, engine=engine)
    for i, (start, end) in enumerate(spans):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("o", Interval(Timestamp(start), Timestamp(end)), {})
    return relation, clock


#: One second in microsecond coordinates (Timestamp's default unit).
S = Timestamp(1).microseconds


class TestStampColumnEncoding:
    def test_event_rows_use_unit_intervals(self):
        relation, _clock = build_events([3, 7])
        columns = relation.engine.transaction_index.store.columns
        assert list(columns.tt_start) == [0, 10 * S]
        # Open existence intervals carry the positive sentinel.
        assert list(columns.tt_stop) == [POS_SENTINEL, POS_SENTINEL]
        assert list(columns.vt_start) == [3 * S, 17 * S]
        assert list(columns.vt_stop) == [3 * S + 1, 17 * S + 1]
        assert bytes(columns.live) == b"\x01\x01"
        # Integer probes make the shared predicate exact equality.
        assert positions_valid_at(columns, 0, 2, 3 * S) == [0]
        assert positions_valid_at(columns, 0, 2, 3 * S + 1) == []

    def test_interval_rows_keep_half_open_bounds(self):
        relation, _clock = build_intervals([(5, 20), (30, 40)])
        columns = relation.engine.transaction_index.store.columns
        assert list(columns.vt_start) == [5 * S, 30 * S]
        assert list(columns.vt_stop) == [20 * S, 40 * S]
        # Half-open: the end point itself is excluded.
        assert positions_valid_at(columns, 0, 2, 20 * S - 1) == [0]
        assert positions_valid_at(columns, 0, 2, 20 * S) == []
        # Overlap window [18s, 31s) touches both rows.
        assert positions_overlapping(columns, 0, 2, 18 * S, 31 * S) == [0, 1]
        assert positions_overlapping(columns, 0, 2, 20 * S, 30 * S) == []

    def test_unbounded_interval_endpoints_become_sentinels(self):
        schema = TemporalSchema(name="r", valid_time_kind=ValidTimeKind.INTERVAL)
        clock = SimulatedWallClock(start=0)
        engine = MemoryEngine(maintain_vt_index=False, segment_size=8)
        relation = TemporalRelation(schema, clock=clock, keep_backlog=False, engine=engine)
        relation.insert("o", Interval(Timestamp(5), FOREVER), {})
        columns = engine.transaction_index.store.columns
        assert list(columns.vt_start) == [5 * S]
        assert list(columns.vt_stop) == [POS_SENTINEL]
        assert NEG_SENTINEL < 0 < POS_SENTINEL
        # An unbounded end contains arbitrarily late probes.
        assert positions_valid_at(columns, 0, 1, 10**15) == [0]

    def test_close_rewrites_tt_stop_and_clears_live_bit(self):
        relation, clock = build_events([0, 0, 0])
        clock.advance_to(Timestamp(1000))
        victim = relation.all_elements()[1]
        relation.delete(victim.element_surrogate)
        columns = relation.engine.transaction_index.store.columns
        assert bytes(columns.live) == b"\x01\x00\x01"
        assert columns.tt_stop[1] == 1000 * S
        assert positions_live(columns, 0, 3) == [0, 2]
        # The rollback predicate still sees the closed row just before
        # the close...
        assert positions_stored_at(columns, 0, 3, 1000 * S - 1) == [0, 1, 2]
        # ...and not at or after it (half-open existence interval).
        assert positions_stored_at(columns, 0, 3, 1000 * S) == [0, 2]

    def test_memory_bytes_tracks_row_count(self):
        columns = StampColumns()
        assert columns.memory_bytes() == 0
        relation, _clock = build_events([0] * 10)
        sidecar = relation.engine.transaction_index.store.columns
        assert sidecar.memory_bytes() == 10 * (4 * 8 + 1)


class TestLateMaterialization:
    """Kernels report positions examined vs Elements materialized."""

    def probe(self, relation, query, strategy):
        report = relation.explain(query)
        assert report.strategy == strategy
        return report

    def test_every_range_operator_reports_columnar_counts(self):
        relation, clock = build_events([0] * 64)
        bounded, _ = build_events(
            [(-1) ** i * 4 for i in range(64)],
            specializations=["strongly bounded(5s, 5s)"],
        )
        sharded, _ = build_events(
            [0] * 64,
            engine=ShardedEngine(shard_count=4, maintain_vt_index=False, segment_size=8),
        )
        clock.advance_to(Timestamp(1000))
        cases = [
            (relation, ValidTimeslice(Scan(relation), Timestamp(0)), "columnar-scan"),
            (relation, Rollback(Scan(relation), Timestamp(300)), "rollback-prefix"),
            (
                relation,
                BitemporalSlice(Scan(relation), vt=Timestamp(0), tt=Timestamp(500)),
                "bitemporal-prefix",
            ),
            (
                bounded,
                ValidTimeslice(Scan(bounded), Timestamp(104)),
                "bounded-tt-window",
            ),
            (
                bounded,
                ValidOverlap(
                    Scan(bounded), Interval(Timestamp(100), Timestamp(140))
                ),
                "bounded-tt-window-overlap",
            ),
            (sharded, ValidTimeslice(Scan(sharded), Timestamp(0)), "columnar-scan"),
        ]
        for rel, query, strategy in cases:
            report = self.probe(rel, query, strategy)
            assert report.columnar_positions_examined is not None, strategy
            assert report.columnar_elements_materialized is not None, strategy
            assert (
                report.columnar_elements_materialized
                <= report.columnar_positions_examined
            ), strategy
            assert report.columnar_elements_materialized == report.returned
            assert "columnar  :" in report.render()

    def test_examined_counts_match_across_paths(self):
        """`examined` counts the rows the segment scan touched, and the
        kernel answer equals the object full scan's."""
        relation, _clock = build_events([0] * 64)
        report = relation.explain(ValidTimeslice(Scan(relation), Timestamp(0)))
        reference, full_examined = operators.timeslice_full_scan(relation, Timestamp(0))
        assert report.examined == 8
        assert full_examined == 64
        assert report.segments_scanned == 1
        assert report.segments_pruned == 7
        assert signature(report.results) == signature(reference)


class TestCurrentStateFeed:
    def test_view_rebuild_matches_object_scan(self):
        relation, clock = build_events([0] * 40, segment_size=8)
        clock.advance_to(Timestamp(2000))
        for element in relation.all_elements()[::3]:
            relation.delete(element.element_surrogate)
        engine = relation.engine
        engine.transaction_index.store.invalidate_view()
        from_columns = signature(engine.current())
        from_objects = signature([e for e in engine.scan() if e.is_current])
        assert from_columns == from_objects
        assert len(from_columns) == relation.live_count()


# -- the differential property -----------------------------------------------------


@settings(deadline=None)
@given(segment_workloads())
def test_columnar_and_object_paths_match(workload):
    """Element-for-element identical answers: the column kernels at
    segment sizes tiny and default against the object oracle.

    The oracle evaluates object predicates over ``engine.scan()`` (the
    ``StorageEngine`` reference methods and the full-scan operators);
    every segment size must agree on every read path (scan, current,
    as-of, valid-at, overlap, and the range-shaped operators) after the
    same randomized interleaving of appends, batches, logical deletes,
    and vacuums.
    """
    ops, probes = workload
    for segment_size in (2, 5, None):
        relation = replay(ops, segment_size)
        assert all_answers(relation, probes) == oracle_answers(relation, probes), (
            f"divergence at segment_size={segment_size}"
        )
