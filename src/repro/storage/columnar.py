"""Columnar stamp sidecar: flat int64 time-stamp columns + kernels.

Any segment that survives zone-map pruning is still a run of Python
``Element`` objects -- and per-object attribute access (``is_current``, ``valid_at``, ``stored_during``) dominates the
cost of every range-shaped operator.  This module moves the predicate
work off the objects and onto four append-only ``array('q')`` columns
(``tt_start``, ``tt_stop``, ``vt_start``, ``vt_stop``) plus a live
bitmap, maintained by the :class:`~repro.storage.segments.SegmentedStore`
alongside its element list.

Encoding, shared with the zone maps and the storage codecs:

* every coordinate is a microsecond position on the common time-line;
* ``FOREVER`` / ``NEGATIVE_INFINITY`` become the fixed int64 sentinels
  ``POS_SENTINEL`` / ``NEG_SENTINEL``, so sentinel comparisons are the
  same branch-free integer comparisons as everything else;
* an *event* valid time ``v`` is stored as the half-open unit interval
  ``[v, v+1)``.  Because probes are integer microseconds, point
  containment ``vt_start <= t < vt_stop`` then means exactly ``v == t``
  for events and half-open containment for intervals -- one predicate
  serves both stamp shapes, with no per-row kind flag.

The kernels below take a column set and a position range and return a
**position list**; callers materialize the surviving ``Element`` objects
only afterwards (late materialization).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp

if TYPE_CHECKING:
    from repro.relation.element import Element

#: Sentinel microsecond coordinates for unbounded endpoints (identical
#: to the zone-map / SQLite / log-file convention; both fit in int64).
POS_SENTINEL = 2**62
NEG_SENTINEL = -(2**62)

def _point(value: object) -> int:
    """A time point as a sentinel-encoded microsecond coordinate."""
    if isinstance(value, Timestamp):
        return value.microseconds
    return POS_SENTINEL if value.is_positive else NEG_SENTINEL  # type: ignore[attr-defined]


class StampColumns:
    """Append-only int64 stamp columns plus a live bitmap.

    One row per stored element, head segment included (rows append as
    elements do).  The only in-place mutation mirrors the store's only
    one: closing an element's existence interval rewrites its
    ``tt_stop`` cell and clears its live bit.
    """

    __slots__ = (
        "tt_start",
        "tt_stop",
        "vt_start",
        "vt_stop",
        "live",
        "unit_only",
        "_sorted_cache",
    )

    #: Per-range sorted-projection cache entries kept before a wholesale
    #: eviction (sealed-segment ranges are stable and hot; clipped head
    #: ranges churn as the store grows, so the cache is bounded).
    SORTED_CACHE_LIMIT = 1024

    def __init__(self) -> None:
        self.tt_start = array("q")
        self.tt_stop = array("q")
        self.vt_start = array("q")
        self.vt_stop = array("q")
        self.live = bytearray()
        #: True while every row is a unit interval ``[v, v+1)`` -- i.e.
        #: an event relation.  Gates the sorted-valid-time bisect path.
        self.unit_only = True
        self._sorted_cache: Dict[Tuple[int, int], Tuple[array, List[int]]] = {}

    def __len__(self) -> int:
        return len(self.live)

    def append(self, element: "Element") -> None:
        vt = element.vt
        if isinstance(vt, Interval):
            vt_lo = _point(vt.start)
            vt_hi = _point(vt.end)
            if vt_hi != vt_lo + 1:
                self.unit_only = False
        else:
            vt_lo = vt.microseconds
            vt_hi = vt_lo + 1  # the unit-interval event encoding
        self.tt_start.append(element.tt_start.microseconds)
        self.tt_stop.append(_point(element.tt_stop))
        self.vt_start.append(vt_lo)
        self.vt_stop.append(vt_hi)
        self.live.append(1 if element.is_current else 0)

    def extend(self, batch: Iterable["Element"]) -> None:
        for element in batch:
            self.append(element)

    def rewrite(self, position: int, element: "Element") -> None:
        """Re-encode the row at *position* (a close or in-place swap)."""
        vt = element.vt
        if isinstance(vt, Interval):
            vt_lo = _point(vt.start)
            vt_hi = _point(vt.end)
            if vt_hi != vt_lo + 1:
                self.unit_only = False
        else:
            vt_lo = vt.microseconds
            vt_hi = vt_lo + 1
        if (self.vt_start[position], self.vt_stop[position]) != (vt_lo, vt_hi):
            # Closes rewrite the same valid time, so this only fires on
            # a genuine in-place swap; the sorted projections are stale.
            self._sorted_cache.clear()
        self.tt_start[position] = element.tt_start.microseconds
        self.tt_stop[position] = _point(element.tt_stop)
        self.vt_start[position] = vt_lo
        self.vt_stop[position] = vt_hi
        self.live[position] = 1 if element.is_current else 0

    def cut_tt_right(self, tt: int, lo: int, hi: int) -> int:
        """First position in ``[lo, hi)`` with ``tt_start > tt``.

        ``tt_start`` is globally sorted, so this is a plain bisect here;
        the cold-tier subclass overrides it to binary-search the
        compressed delta blocks on disk instead, which is why the
        transaction-time kernels route through this method rather than
        bisecting the array attribute directly (touching the attribute
        would force a full column decode).
        """
        return bisect_right(self.tt_start, tt, lo, hi)

    def without_prefix(self, count: int) -> "StampColumns":
        """A copy with the first *count* rows dropped (tier demotion of
        the cold prefix): surviving rows keep their relative order, and
        sorted-projection cache entries entirely inside the surviving
        suffix shift down with them."""
        trimmed = StampColumns()
        trimmed.tt_start = self.tt_start[count:]
        trimmed.tt_stop = self.tt_stop[count:]
        trimmed.vt_start = self.vt_start[count:]
        trimmed.vt_stop = self.vt_stop[count:]
        trimmed.live = self.live[count:]
        trimmed.unit_only = self.unit_only
        for (lo, hi), (starts, order) in self._sorted_cache.items():
            if lo >= count:
                trimmed._sorted_cache[(lo - count, hi - count)] = (
                    starts,
                    [i - count for i in order],
                )
        return trimmed

    def sorted_starts(self, lo: int, hi: int) -> Tuple[array, List[int]]:
        """``vt_start`` over ``[lo, hi)`` sorted, with the permutation.

        Lazily built per position range and cached: sealed segments
        present stable ranges, so after the first query each one is a
        reusable sorted projection for the bisect fast paths.  Values in
        the cached ranges are immutable in practice (the store's only
        in-place mutation, closing an element, keeps its valid time;
        :meth:`rewrite` clears the cache if a swap does change one).
        """
        key = (lo, hi)
        cached = self._sorted_cache.get(key)
        if cached is None:
            if len(self._sorted_cache) >= self.SORTED_CACHE_LIMIT:
                self._sorted_cache.clear()
            vt_start = self.vt_start
            order = sorted(range(lo, hi), key=vt_start.__getitem__)
            starts = array("q", [vt_start[i] for i in order])
            cached = (starts, order)
            self._sorted_cache[key] = cached
        return cached

    def memory_bytes(self) -> int:
        """Approximate sidecar footprint (four int64 columns + bitmap)."""
        return 4 * 8 * len(self.live) + len(self.live)


# -- position-list kernels ------------------------------------------------------------
#
# Each kernel is one tight integer loop over the columns for positions
# [lo, hi), returning the surviving positions.  Locals are bound once;
# the loop body is index arithmetic and int comparisons only -- no
# attribute access, no isinstance, no method dispatch.
#
# Two bisect fast paths cut the loops short entirely:
#
# * ``tt_start`` is globally sorted (append order IS transaction order),
#   so the rows with ``tt_start <= tt`` are a bisectable prefix of any
#   position range -- the transaction-time half of a predicate never
#   needs a full pass;
# * on an event store (``unit_only``), a range's rows sorted by
#   ``vt_start`` turn the valid-time predicates into binary searches
#   over a cached sorted projection (:meth:`StampColumns.sorted_starts`):
#   a timeslice is the run of rows with ``vt_start == vt``, an overlap
#   window ``[a, b)`` is the run with ``a <= vt_start < b``.


def positions_valid_at(columns: StampColumns, lo: int, hi: int, vt: int) -> List[int]:
    """Live rows whose valid time contains *vt* (timeslice predicate)."""
    live = columns.live
    if columns.unit_only:
        starts, order = columns.sorted_starts(lo, hi)
        left = bisect_left(starts, vt)
        right = bisect_right(starts, vt, left)
        # Matches come back in valid-time order; answers are in
        # position (= transaction) order, so re-sort the survivors.
        return sorted(i for i in order[left:right] if live[i])
    vt_lo = columns.vt_start
    vt_hi = columns.vt_stop
    return [i for i in range(lo, hi) if live[i] and vt_lo[i] <= vt < vt_hi[i]]


def positions_overlapping(
    columns: StampColumns, lo: int, hi: int, win_lo: int, win_hi: int
) -> List[int]:
    """Live rows whose valid time intersects the half-open window
    ``[win_lo, win_hi)`` (overlap predicate)."""
    live = columns.live
    if columns.unit_only:
        # A unit row [v, v+1) intersects [win_lo, win_hi) iff
        # win_lo <= v < win_hi (integer coordinates).
        starts, order = columns.sorted_starts(lo, hi)
        left = bisect_left(starts, win_lo)
        right = bisect_left(starts, win_hi, left)
        return sorted(i for i in order[left:right] if live[i])
    vt_lo = columns.vt_start
    vt_hi = columns.vt_stop
    return [i for i in range(lo, hi) if live[i] and vt_lo[i] < win_hi and vt_hi[i] > win_lo]


def positions_stored_at(columns: StampColumns, lo: int, hi: int, tt: int) -> List[int]:
    """Rows whose existence interval contains *tt* (rollback predicate)."""
    # tt_start is sorted: rows with tt_start <= tt are a prefix.  The
    # cut runs through the column set so cold segments can answer it
    # from the compressed delta blocks without decoding tt_start.
    cut = columns.cut_tt_right(tt, lo, hi)
    if cut <= lo:
        return []
    tt_hi = columns.tt_stop
    return [i for i in range(lo, cut) if tt < tt_hi[i]]


def positions_bitemporal(
    columns: StampColumns, lo: int, hi: int, tt: int, vt: int
) -> List[int]:
    """Rows stored during *tt* whose valid time contains *vt*."""
    cut = columns.cut_tt_right(tt, lo, hi)
    if cut <= lo:
        return []
    tt_hi = columns.tt_stop
    vt_lo = columns.vt_start
    vt_hi = columns.vt_stop
    return [
        i
        for i in range(lo, cut)
        if tt < tt_hi[i] and vt_lo[i] <= vt < vt_hi[i]
    ]


def positions_live(columns: StampColumns, lo: int, hi: int) -> List[int]:
    """Live rows (the current-state feed and FOREVER-rollback predicate)."""
    live = columns.live
    return [i for i in range(lo, hi) if live[i]]


def positions_live_valid_at(
    columns: StampColumns, lo: int, hi: int, vt: int
) -> List[int]:
    """Alias shape for the bitemporal slice at ``tt = FOREVER``: the
    limit state equals the current state, so this is the timeslice
    kernel -- kept as its own name so call sites read like the paper's
    operator taxonomy."""
    return positions_valid_at(columns, lo, hi, vt)
