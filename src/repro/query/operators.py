"""Physical operators.

Each operator returns ``(results, examined)`` where *examined* counts
the stored elements it touched -- the work metric the benchmarks report
alongside wall-clock time.  Operators that exploit structure only apply
when the relation's declared specializations license them; the planner
is responsible for that reasoning.

Operators whose candidate set is a transaction-time range (prefixes,
bounded windows, bitemporal slices) run segment-at-a-time over the
engine's :class:`~repro.storage.segments.SegmentedStore`: the declared
offsets tighten the range first, then each sealed segment's zone map is
consulted and segments that cannot contain a match are skipped without
touching an element.  Callers pass a :class:`SegmentStats` to receive
the scanned/pruned counts ``explain()`` reports.  Surviving segments run
serially through a column kernel, in position order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.chronos.interval import Interval
from repro.chronos.timestamp import TimePoint, Timestamp
from repro.relation.element import Element
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.columnar import (
    StampColumns,
    positions_bitemporal,
    positions_live,
    positions_overlapping,
    positions_stored_at,
    positions_valid_at,
)
from repro.storage.indexes import TransactionTimeIndex
from repro.storage.segments import (
    NEG_SENTINEL,
    POS_SENTINEL,
    SegmentedStore,
    ZoneMap,
)

Result = Tuple[List[Element], int]

#: A column kernel: positions surviving the predicate within [lo, hi).
Kernel = Callable[[StampColumns, int, int], List[int]]


def _tt_index(relation: TemporalRelation) -> Optional[TransactionTimeIndex]:
    # Any engine exposing a transaction_index (memory, logfile mirror)
    # gets the specialized transaction-order strategies.
    return getattr(relation.engine, "transaction_index", None)


def _sharded_engine(relation: TemporalRelation):
    """The relation's :class:`~repro.storage.sharded.ShardedEngine`, or None.

    Duck-typed on the ``is_sharded`` flag so this module never imports
    the sharded engine (which lazily imports relations back).
    """
    engine = relation.engine
    if getattr(engine, "is_sharded", False):
        return engine
    return None


@dataclass
class ShardStats:
    """Envelope-routing accounting for one query execution.

    ``routed`` + ``pruned`` counts shard visits the query's engine reads
    decided; ``pruned`` shards were skipped because their (tt, vt)
    envelope could not intersect the probe (or they were empty).
    """

    routed: int = 0
    pruned: int = 0


def _scatter_gather(
    engine,
    relation: TemporalRelation,
    per_shard: Callable[[TemporalRelation, Optional[SegmentStats]], Result],
    match,
    stats: Optional[SegmentStats] = None,
    descending: bool = False,
) -> Result:
    """Run one operator scatter-gather over the routed shards.

    The specialization the planner licensed globally holds on every
    shard (orderings survive tt-subsequences), so *per_shard* is the
    same specialized operator recursing into a per-shard relation view.
    Envelope routing first drops shards the probe cannot touch; the
    surviving shards run in turn, accumulating their segment statistics
    into *stats*, and the gather merges by the globally unique
    ``tt_start`` -- ascending, or descending for operators whose
    single-store output walks backwards.
    """
    views = engine.subrelations(relation.schema)
    merged: List[Element] = []
    examined_total = 0
    for index in engine.route_shards(match):
        results, examined = per_shard(views[index], stats)
        merged.extend(results)
        examined_total += examined
    merged.sort(key=lambda element: element.tt_start.microseconds, reverse=descending)
    return merged, examined_total


def tiered_active(relation: TemporalRelation) -> bool:
    """Does this relation's store have cold (demoted) segments?

    Advertised by the planner so ``explain`` can say when a query may be
    served partly from compressed segment files rather than memory.
    """
    index = _tt_index(relation)
    return index is not None and index.store.cold_base > 0


@dataclass
class SegmentStats:
    """Zone-map accounting for one operator execution.

    ``scanned`` + ``pruned`` is the number of segments the candidate
    transaction-time range overlapped; ``pruned`` of them were skipped
    on zone-map evidence alone.

    Once a segment scan ran, ``columnar`` is set and
    ``positions_examined`` / ``materialized`` record how many column
    rows the kernels tested versus how many ``Element`` objects were
    actually built for the answer -- the late-materialization ratio
    ``explain()`` surfaces.
    """

    scanned: int = 0
    pruned: int = 0
    columnar: bool = False
    positions_examined: int = 0
    materialized: int = 0
    #: Work units served from the cold tier (compressed segment files)
    #: rather than in-memory state -- the tiered-storage accounting.
    cold_segments: int = 0


def _scan_segments(
    store: SegmentedStore,
    start: int,
    stop: int,
    zone_match: Callable[[ZoneMap], bool],
    stats: Optional[SegmentStats],
    kernel: Kernel,
) -> Result:
    """Filter positions ``[start, stop)`` segment-at-a-time.

    Sealed segments overlapping the range are kept only when
    *zone_match* accepts their zone map (zone maps summarise the whole
    segment, so rejecting one is valid even when the range clips it);
    the mutable head is always scanned.  Each surviving segment runs
    *kernel* over its stamp columns and hands back a **position list**;
    the surviving ``Element`` objects are materialized afterwards, in
    position (= tt) order.  The differential suites hold every kernel
    to the object predicates of the reference scans.
    """
    if stop <= start:
        return [], 0
    size = store.segment_size
    head_start = store.head_start
    units: List[Tuple[int, int]] = []
    pruned = 0
    first = start // size
    for ordinal in range(first, store.sealed_count):
        seg_lo = ordinal * size
        if seg_lo >= stop:
            break
        lo = max(start, seg_lo)
        hi = min(stop, seg_lo + size)
        if zone_match(store.zone_of(ordinal)):
            units.append((lo, hi))
        else:
            pruned += 1
    if stop > head_start:
        lo = max(start, head_start)
        if lo < stop:
            units.append((lo, stop))
    cold_base = store.cold_base
    if stats is not None:
        stats.scanned += len(units)
        stats.pruned += pruned
        if cold_base:
            stats.cold_segments += sum(1 for lo, _hi in units if lo < cold_base)

    matches: List[Element] = []
    examined = 0
    materialized = 0
    for lo, hi in units:
        # Hot units run on the store's sidecar; a cold unit gets its
        # segment's lazily-decoded column set, in segment-local
        # coordinates (units never span the cold/hot boundary).
        columns, base = store.kernel_view(lo, hi)
        positions = kernel(columns, lo - base, hi - base)
        # Late materialization: objects are fetched only for the
        # positions the kernel kept.
        matches.extend(store.fetch_elements(base, positions))
        examined += hi - lo
        materialized += len(positions)
    if stats is not None:
        stats.columnar = True
        stats.positions_examined += examined
        stats.materialized += materialized
    return matches, examined


# -- baseline -------------------------------------------------------------------


def timeslice_full_scan(relation: TemporalRelation, vt: Timestamp) -> Result:
    """Examine every stored element (the reference strategy)."""
    matches = []
    examined = 0
    for element in relation.engine.scan():
        examined += 1
        if element.is_current and element.valid_at(vt):
            matches.append(element)
    return matches, examined


def rollback_full_scan(relation: TemporalRelation, tt: TimePoint) -> Result:
    matches = []
    examined = 0
    for element in relation.engine.scan():
        examined += 1
        if element.stored_during(tt):
            matches.append(element)
    return matches, examined


# -- transaction-time access -------------------------------------------------------


def rollback_prefix(
    relation: TemporalRelation,
    tt: TimePoint,
    stats: Optional[SegmentStats] = None,
) -> Result:
    """Rollback via the append-ordered index: binary search bounds the
    candidate prefix, then zone maps skip fully-dead segments (every
    element closed at or before *tt* -- e.g. vacuum-bait history runs)."""
    sharded = _sharded_engine(relation)
    if sharded is not None:
        if isinstance(tt, Timestamp):
            tt_micro = tt.microseconds
        elif tt.is_positive:  # FOREVER: the current state
            tt_micro = POS_SENTINEL
        else:  # NEGATIVE_INFINITY: empty prefix
            return [], 0
        return _scatter_gather(
            sharded,
            relation,
            lambda view, local: rollback_prefix(view, tt, stats=local),
            lambda envelope: envelope.alive_at(tt_micro),
            stats,
        )
    index = _tt_index(relation)
    if index is None:
        results = list(relation.engine.as_of(tt))
        return results, len(results)
    store = index.store
    if isinstance(tt, Timestamp):
        stop = store.position_right(tt.microseconds)
        tt_micro = tt.microseconds
        zone_match: Callable[[ZoneMap], bool] = lambda zone: zone.alive_at(tt_micro)
        kernel: Kernel = lambda columns, lo, hi: positions_stored_at(
            columns, lo, hi, tt_micro
        )
    elif tt.is_positive:  # FOREVER: the current state
        stop = len(store)
        zone_match = lambda zone: zone.live > 0
        kernel = positions_live
    else:  # NEGATIVE_INFINITY: empty prefix
        return [], 0
    return _scan_segments(
        store,
        0,
        stop,
        zone_match,
        stats,
        kernel=kernel,
    )


def timeslice_degenerate(relation: TemporalRelation, vt: Timestamp) -> Result:
    """Degenerate relations: ``vt = tt``, so a valid timeslice is a point
    lookup on the transaction-time index (Section 3.1's remark that a
    degenerate relation "can be advantageously treated as a rollback
    relation")."""
    sharded = _sharded_engine(relation)
    if sharded is not None:
        target = vt.microseconds
        return _scatter_gather(
            sharded,
            relation,
            lambda view, local: timeslice_degenerate(view, vt),
            lambda envelope: (
                envelope.live > 0
                and envelope.tt_lo <= target <= envelope.tt_hi
                and envelope.may_contain_vt(target, target)
            ),
        )
    index = _tt_index(relation)
    if index is None:
        raise ValueError("degenerate timeslice requires the in-memory tt index")
    matches = []
    examined = 0
    for element in index.window(vt, vt):
        examined += 1
        if element.is_current and element.valid_at(vt):
            matches.append(element)
    return matches, examined


def timeslice_degenerate_granular(
    relation: TemporalRelation, vt: Timestamp, granularity
) -> Result:
    """Granularity-relative degenerate relations: ``floor(vt) = floor(tt)``.

    An element valid at *vt* has its transaction time inside the same
    granularity tick, so the scan covers exactly one tick of the
    transaction-time index.
    """
    sharded = _sharded_engine(relation)
    if sharded is not None:
        tick_lo = vt.floor_to(granularity).microseconds
        tick_hi = tick_lo + granularity.microseconds - 1
        target = vt.microseconds
        return _scatter_gather(
            sharded,
            relation,
            lambda view, local: timeslice_degenerate_granular(view, vt, granularity),
            lambda envelope: (
                envelope.live > 0
                and not (envelope.tt_hi < tick_lo or envelope.tt_lo > tick_hi)
                and envelope.may_contain_vt(target, target)
            ),
        )
    index = _tt_index(relation)
    if index is None:
        raise ValueError("degenerate timeslice requires the in-memory tt index")
    tick_start = vt.floor_to(granularity)
    tick_last = Timestamp(
        tick_start.microseconds + granularity.microseconds - 1, "microsecond"
    )
    matches = []
    examined = 0
    for element in index.window(tick_start, tick_last):
        examined += 1
        if element.is_current and element.valid_at(vt):
            matches.append(element)
    return matches, examined


def timeslice_bounded_window(
    relation: TemporalRelation,
    vt: Timestamp,
    lower_offset: Optional[int],
    upper_offset: Optional[int],
    stats: Optional[SegmentStats] = None,
) -> Result:
    """Scan only the transaction window allowed by the declared bounds.

    With declared offsets ``lower <= vt - tt <= upper`` (microseconds,
    either side may be None for unbounded), an element valid at ``vt``
    must satisfy ``vt - upper <= tt <= vt - lower``.  The declared
    window bounds the segment range first; zone maps then skip
    segments with no live element or no valid time covering *vt*.
    """
    sharded = _sharded_engine(relation)
    if sharded is not None:
        target = vt.microseconds
        win_lo = NEG_SENTINEL if upper_offset is None else target - upper_offset
        win_hi = POS_SENTINEL if lower_offset is None else target - lower_offset
        return _scatter_gather(
            sharded,
            relation,
            lambda view, local: timeslice_bounded_window(
                view, vt, lower_offset, upper_offset, stats=local
            ),
            lambda envelope: (
                envelope.live > 0
                and not (envelope.tt_hi < win_lo or envelope.tt_lo > win_hi)
                and envelope.may_contain_vt(target, target)
            ),
            stats,
        )
    index = _tt_index(relation)
    if index is None:
        raise ValueError("bounded-window timeslice requires the in-memory tt index")
    store = index.store
    start = (
        0
        if upper_offset is None
        else store.position_left(vt.microseconds - upper_offset)
    )
    stop = (
        len(store)
        if lower_offset is None
        else store.position_right(vt.microseconds - lower_offset)
    )
    target = vt.microseconds
    return _scan_segments(
        store,
        start,
        stop,
        lambda zone: zone.live > 0 and zone.may_contain_vt(target, target),
        stats,
        kernel=lambda columns, lo, hi: positions_valid_at(columns, lo, hi, target),
    )


def overlap_bounded_window(
    relation: TemporalRelation,
    window: Interval,
    lower_offset: Optional[int],
    upper_offset: Optional[int],
    stats: Optional[SegmentStats] = None,
) -> Result:
    """Window variant of :func:`timeslice_bounded_window` for event
    relations: an element with valid time in ``[a, b)`` must have been
    stored in ``[a - upper, b - lower)``.  Zone maps additionally skip
    segments whose valid-time coverage misses the window."""
    sharded = _sharded_engine(relation)
    if sharded is not None:
        w_start = window.start
        w_end = window.end
        if not (isinstance(w_start, Timestamp) and isinstance(w_end, Timestamp)):
            results = list(relation.engine.valid_overlapping(window))
            return results, len(results)
        vt_first = w_start.microseconds
        vt_last = w_end.microseconds - 1  # the window is half-open
        win_lo = NEG_SENTINEL if upper_offset is None else vt_first - upper_offset
        win_hi = POS_SENTINEL if lower_offset is None else w_end.microseconds - lower_offset
        return _scatter_gather(
            sharded,
            relation,
            lambda view, local: overlap_bounded_window(
                view, window, lower_offset, upper_offset, stats=local
            ),
            lambda envelope: (
                envelope.live > 0
                and not (envelope.tt_hi < win_lo or envelope.tt_lo > win_hi)
                and envelope.may_contain_vt(vt_first, vt_last)
            ),
            stats,
        )
    index = _tt_index(relation)
    if index is None:
        raise ValueError("bounded-window overlap requires the in-memory tt index")
    start = window.start
    end = window.end
    if not (isinstance(start, Timestamp) and isinstance(end, Timestamp)):
        results = list(relation.engine.valid_overlapping(window))
        return results, len(results)
    store = index.store
    first = (
        0
        if upper_offset is None
        else store.position_left(start.microseconds - upper_offset)
    )
    stop = (
        len(store)
        if lower_offset is None
        else store.position_right(end.microseconds - lower_offset)
    )
    vt_lo = start.microseconds
    vt_hi = end.microseconds - 1  # the window is half-open
    win_hi = end.microseconds  # kernels keep the exclusive endpoint
    return _scan_segments(
        store,
        first,
        stop,
        lambda zone: zone.live > 0 and zone.may_contain_vt(vt_lo, vt_hi),
        stats,
        kernel=lambda columns, lo, hi: positions_overlapping(
            columns, lo, hi, vt_lo, win_hi
        ),
    )


# -- monotone valid-time access ------------------------------------------------------


def timeslice_monotone_events(
    relation: TemporalRelation, vt: Timestamp, descending: bool = False
) -> Result:
    """Event relations declared non-decreasing (or non-increasing):
    valid times are sorted along the transaction order, so the matching
    run is found by binary search -- "valid time can be approximated
    with transaction time" (Section 3.2)."""
    sharded = _sharded_engine(relation)
    if sharded is not None:
        target = vt.microseconds
        return _scatter_gather(
            sharded,
            relation,
            lambda view, local: timeslice_monotone_events(view, vt, descending),
            lambda envelope: (
                envelope.live > 0 and envelope.may_contain_vt(target, target)
            ),
        )
    index = _tt_index(relation)
    if index is None:
        raise ValueError("monotone timeslice requires the in-memory tt index")
    size = len(index)
    target = vt.microseconds

    def key(position: int) -> int:
        value = index.element_at(position).vt.microseconds  # type: ignore[union-attr]
        return -value if descending else value

    goal = -target if descending else target
    low, high = 0, size
    while low < high:
        mid = (low + high) // 2
        if key(mid) < goal:
            low = mid + 1
        else:
            high = mid
    matches = []
    examined = 0
    position = low
    while position < size:
        element = index.element_at(position)
        examined += 1
        if element.vt != vt:
            break
        if element.is_current:
            matches.append(element)
        position += 1
    # Binary-search probes also examined ~log2(n) elements.
    examined += max(size.bit_length(), 1)
    return matches, examined


def timeslice_sequential_intervals(relation: TemporalRelation, vt: Timestamp) -> Result:
    """Sequential interval relations: intervals are disjoint and ordered,
    so at most one (current) interval contains the point; binary search
    for the last interval starting at or before it."""
    sharded = _sharded_engine(relation)
    if sharded is not None:
        target = vt.microseconds
        # Single-store output walks backwards from the insertion point,
        # so the gather preserves the descending-tt discipline.
        return _scatter_gather(
            sharded,
            relation,
            lambda view, local: timeslice_sequential_intervals(view, vt),
            lambda envelope: (
                envelope.live > 0 and envelope.may_contain_vt(target, target)
            ),
            descending=True,
        )
    index = _tt_index(relation)
    if index is None:
        raise ValueError("sequential timeslice requires the in-memory tt index")
    size = len(index)
    if size == 0:
        return [], 0

    def start_of(position: int) -> int:
        start = index.element_at(position).vt.start  # type: ignore[union-attr]
        return start.microseconds if isinstance(start, Timestamp) else -(2**62)

    low, high = 0, size
    target = vt.microseconds
    while low < high:
        mid = (low + high) // 2
        if start_of(mid) <= target:
            low = mid + 1
        else:
            high = mid
    matches = []
    examined = max(size.bit_length(), 1)
    # Sequentiality makes intervals disjoint across the whole relation,
    # but a logically deleted interval may coexist with its correction;
    # scan back over the (rare) ties and deleted predecessors.
    position = low - 1
    while position >= 0:
        element = index.element_at(position)
        examined += 1
        if isinstance(element.vt, Interval) and element.vt.contains_point(vt):
            if element.is_current:
                matches.append(element)
            position -= 1
            continue
        break
    return matches, examined


def timeslice_segment_pruned(
    relation: TemporalRelation,
    vt: Timestamp,
    stats: Optional[SegmentStats] = None,
) -> Result:
    """Timeslice for undeclared relations without a valid-time index:
    still a full transaction-range pass, but whole segments drop out on
    zone-map evidence (no live elements, or valid-time coverage that
    misses *vt*) before any element is examined."""
    sharded = _sharded_engine(relation)
    if sharded is not None:
        target = vt.microseconds
        return _scatter_gather(
            sharded,
            relation,
            lambda view, local: timeslice_segment_pruned(view, vt, stats=local),
            lambda envelope: (
                envelope.live > 0 and envelope.may_contain_vt(target, target)
            ),
            stats,
        )
    index = _tt_index(relation)
    if index is None:
        raise ValueError("segment-pruned timeslice requires a transaction index")
    store = index.store
    target = vt.microseconds
    return _scan_segments(
        store,
        0,
        len(store),
        lambda zone: zone.live > 0 and zone.may_contain_vt(target, target),
        stats,
        kernel=lambda columns, lo, hi: positions_valid_at(columns, lo, hi, target),
    )


# -- engine-delegated access ------------------------------------------------------------


def timeslice_engine_index(
    relation: TemporalRelation, vt: Timestamp, as_of_tt: Optional[TimePoint] = None
) -> Result:
    """Delegate to the engine's own valid-time index (memory vt index /
    interval tree, or SQLite's B-tree), pinned at *as_of_tt* when given."""
    results = list(relation.engine.valid_at(vt, as_of_tt=as_of_tt))
    return results, len(results)


def overlap_engine_index(relation: TemporalRelation, window: Interval) -> Result:
    results = list(relation.engine.valid_overlapping(window))
    return results, len(results)


def merge_join_events(
    left_relation: TemporalRelation,
    right_relation: TemporalRelation,
    condition,
) -> Tuple[List[Tuple[Element, Element]], int]:
    """Sort-merge valid-time join of two *non-decreasing* event relations.

    When both inputs are declared non-decreasing (or sequential), their
    current elements are already valid-time-sorted in transaction
    order, so the equality join on event stamps runs in one merge pass
    -- O(n + m + matches) instead of the nested loop's O(n * m).
    Runs of equal stamps cross-product, as they must.

    Inputs come from ``engine.current()`` -- O(live) via the
    materialized current-state view, instead of filtering full history.
    """
    left = list(left_relation.engine.current())
    right = list(right_relation.engine.current())
    pairs: List[Tuple[Element, Element]] = []
    examined = len(left) + len(right)
    i = j = 0
    while i < len(left) and j < len(right):
        left_vt = left[i].vt
        right_vt = right[j].vt
        if left_vt < right_vt:  # type: ignore[operator]
            i += 1
        elif right_vt < left_vt:  # type: ignore[operator]
            j += 1
        else:
            # Collect both runs of this stamp, cross product them.
            run_end_left = i
            while run_end_left < len(left) and left[run_end_left].vt == left_vt:
                run_end_left += 1
            run_end_right = j
            while run_end_right < len(right) and right[run_end_right].vt == left_vt:
                run_end_right += 1
            for l_element in left[i:run_end_left]:
                for r_element in right[j:run_end_right]:
                    if condition(l_element, r_element):
                        pairs.append((l_element, r_element))
            i, j = run_end_left, run_end_right
    return pairs, examined


def merge_join_intervals(
    left_relation: TemporalRelation,
    right_relation: TemporalRelation,
    condition,
) -> Tuple[List[Tuple[Element, Element]], int]:
    """Plane-sweep overlap join of two *non-decreasing* interval relations.

    With both inputs' current intervals sorted by start (which the
    non-decreasing declaration guarantees along transaction order), the
    classic sweep emits every overlapping pair in
    O(n + m + matches): advance whichever side ends first; on each
    step, pair the advanced interval with the open intervals of the
    other side.

    This implementation keeps the sweep simple by probing forward from
    the current frontier -- work stays proportional to matches for the
    common case of bounded overlap fan-out.

    Inputs come from ``engine.current()`` -- O(live) via the
    materialized current-state view, instead of filtering full history.
    """
    left = list(left_relation.engine.current())
    right = list(right_relation.engine.current())
    pairs: List[Tuple[Element, Element]] = []
    examined = len(left) + len(right)
    frontier = 0
    for l_element in left:
        l_interval = l_element.vt
        # Rights ending at or before this left's start can never overlap
        # any later left either (left starts are non-decreasing), so the
        # frontier advances permanently.
        while frontier < len(right) and right[frontier].vt.end <= l_interval.start:  # type: ignore[union-attr]
            frontier += 1
        for r_element in right[frontier:]:
            r_interval = r_element.vt
            if r_interval.start >= l_interval.end:  # type: ignore[union-attr]
                break  # right starts are sorted; nothing further overlaps
            examined += 1
            if r_interval.end > l_interval.start and condition(l_element, r_element):  # type: ignore[union-attr]
                pairs.append((l_element, r_element))
    return pairs, examined


def bitemporal_prefix(
    relation: TemporalRelation,
    vt: Timestamp,
    tt: TimePoint,
    stats: Optional[SegmentStats] = None,
) -> Result:
    """Bitemporal slice: tt-prefix via binary search, then vt filter.

    Zone maps prune segments that were entirely dead at *tt* or whose
    valid-time coverage misses *vt*.
    """
    sharded = _sharded_engine(relation)
    if sharded is not None:
        target = vt.microseconds
        if isinstance(tt, Timestamp):
            tt_micro = tt.microseconds
        elif tt.is_positive:  # FOREVER: limit state = current state
            tt_micro = POS_SENTINEL
        else:
            return [], 0
        return _scatter_gather(
            sharded,
            relation,
            lambda view, local: bitemporal_prefix(view, vt, tt, stats=local),
            lambda envelope: (
                envelope.alive_at(tt_micro)
                and envelope.may_contain_vt(target, target)
            ),
            stats,
        )
    index = _tt_index(relation)
    if index is None:
        results = list(relation.engine.valid_at(vt, as_of_tt=tt))
        return results, len(results)
    store = index.store
    target = vt.microseconds
    if isinstance(tt, Timestamp):
        stop = store.position_right(tt.microseconds)
        tt_micro = tt.microseconds
        zone_match: Callable[[ZoneMap], bool] = lambda zone: (
            zone.alive_at(tt_micro) and zone.may_contain_vt(target, target)
        )
        kernel: Kernel = lambda columns, lo, hi: positions_bitemporal(
            columns, lo, hi, tt_micro, target
        )
    elif tt.is_positive:  # FOREVER: limit state = current state
        stop = len(store)
        zone_match = lambda zone: zone.live > 0 and zone.may_contain_vt(target, target)
        kernel = lambda columns, lo, hi: positions_valid_at(columns, lo, hi, target)
    else:
        return [], 0
    return _scan_segments(
        store,
        0,
        stop,
        zone_match,
        stats,
        kernel=kernel,
    )
