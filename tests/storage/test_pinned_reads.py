"""Pinned valid-time reads equal the rollback-then-filter reference.

Snapshot reducibility: a read pinned at ``tt`` must equal the unpinned
read of the store truncated at ``tt``.  The reference is the
:class:`StorageEngine` base-class definition -- the rollback state
(``stored_during``) over a full scan, filtered by valid time -- which no
engine index takes part in.

* A Hypothesis differential replays one script of in-order and
  out-of-order event batches, single appends and closes through every
  engine topology, then compares pinned ``valid_at`` and
  ``valid_overlapping`` at random pins and windows, bounded and
  unbounded.  Answers must match element for element, in tt order.
* A thread-level test runs pinned readers beside one writer whose
  out-of-order batches force the event index's merge-and-publish path;
  every answer must equal the reference at the reader's pin.
"""

from __future__ import annotations

import random
import sys
import tempfile
import threading
from contextlib import ExitStack
from os import path

import pytest
from hypothesis import given, strategies as st

from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, NEGATIVE_INFINITY, Timestamp
from repro.relation.element import Element
from repro.storage.base import StorageEngine
from repro.storage.logfile import LogFileEngine
from repro.storage.memory import MemoryEngine
from repro.storage.sharded import ShardedEngine
from repro.storage.sqlite_backend import SQLiteEngine

pytestmark = pytest.mark.slow

VT = st.integers(min_value=0, max_value=40)
FIRST_TICK = 1000


@st.composite
def scripts(draw):
    """Write operations plus read probes.

    ``("extend", vts)`` stores one batch, ``("append", vt)`` one element
    and ``("close", k)`` logically deletes the k-th live element (mod
    the live count).  In-order batches start at the running maximum
    valid time, so the index appends them in place; shuffled batches
    land below it and take the merge path.
    """
    ops = []
    high = 0
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(["in_order", "shuffled", "append", "close"]))
        if kind == "in_order":
            steps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
            vts = []
            for step in steps:
                high += step
                vts.append(high)
            ops.append(("extend", vts))
        elif kind == "shuffled":
            vts = draw(st.lists(VT, min_size=1, max_size=8))
            high = max(high, *vts)
            ops.append(("extend", vts))
        elif kind == "append":
            vt = draw(VT)
            high = max(high, vt)
            ops.append(("append", vt))
        else:
            ops.append(("close", draw(st.integers(min_value=0, max_value=63))))
    pins = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=FIRST_TICK - 1, max_value=FIRST_TICK + 80).map(
                    Timestamp
                ),
                st.sampled_from([FOREVER, NEGATIVE_INFINITY]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    vts = draw(st.lists(st.integers(min_value=0, max_value=high + 1), min_size=1, max_size=4))
    windows = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        low = draw(st.integers(min_value=-1, max_value=high + 1))
        width = draw(st.integers(min_value=1, max_value=12))
        start = NEGATIVE_INFINITY if draw(st.booleans()) else Timestamp(low)
        end = FOREVER if draw(st.booleans()) else Timestamp(low + width)
        windows.append(Interval(start, end))
    return ops, pins, vts, windows


def replay(engine: StorageEngine, ops) -> None:
    """Apply *ops* with one tick per stored element or close, exactly
    as a relation's transaction clock would stamp them."""
    tick = FIRST_TICK
    surrogate = 0
    live = []

    def element(vt: int) -> Element:
        nonlocal tick, surrogate
        tick += 1
        surrogate += 1
        live.append(surrogate)
        return Element(
            element_surrogate=surrogate,
            object_surrogate=f"obj-{surrogate % 5}",
            tt_start=Timestamp(tick),
            vt=Timestamp(vt),
            time_varying={"v": surrogate},
        )

    for op in ops:
        if op[0] == "extend":
            engine.extend([element(vt) for vt in op[1]])
        elif op[0] == "append":
            engine.append(element(op[1]))
        elif live:
            tick += 1
            engine.close_element(live.pop(op[1] % len(live)), Timestamp(tick))


def canonical(elements) -> list:
    return [
        (
            element.element_surrogate,
            element.tt_start.microseconds,
            None if element.tt_stop is FOREVER else element.tt_stop.microseconds,
            element.vt.microseconds,
        )
        for element in elements
    ]


def reference(engine: StorageEngine, pin, keep) -> list:
    """The base-class rollback over a full scan, filtered, in tt order."""
    state = StorageEngine.as_of(engine, pin)
    return canonical(
        sorted((e for e in state if keep(e)), key=lambda e: e.tt_start.microseconds)
    )


def topologies(stack: ExitStack):
    """Every engine topology, each closed when *stack* unwinds."""
    directory = stack.enter_context(tempfile.TemporaryDirectory())
    engines = {
        "memory": MemoryEngine(),
        "logfile": LogFileEngine(path.join(directory, "wal.jsonl")),
        "sharded-4": ShardedEngine(shard_count=4),
        "tiered": MemoryEngine(segment_size=4, tier_dir=path.join(directory, "tier")),
        "sqlite": SQLiteEngine(),
    }
    for engine in engines.values():
        stack.callback(engine.close)
    return engines


@given(scripts())
def test_pinned_reads_match_rollback_reference(script):
    ops, pins, vts, windows = script
    with ExitStack() as stack:
        for name, engine in topologies(stack).items():
            replay(engine, ops)
            for pin in pins:
                for tick in vts:
                    vt = Timestamp(tick)
                    assert canonical(engine.valid_at(vt, as_of_tt=pin)) == reference(
                        engine, pin, lambda e: e.valid_at(vt)
                    ), (name, pin, vt)
                for window in windows:
                    got = canonical(engine.valid_overlapping(window, as_of_tt=pin))
                    assert got == reference(
                        engine, pin, lambda e: window.contains_point(e.vt)
                    ), (name, pin, window)


class TestReadersBesideWriter:
    """Pinned reads from several threads while one thread extends."""

    PRELOAD = 20_000
    BATCHES = 120
    BATCH = 40
    VALID_TIMES = 2_000
    READERS = 3

    def _script(self, rng: random.Random):
        """``(batch, close)`` steps: an out-of-order batch (so every one
        merges) and the close of one of its elements.  Fixed before any
        thread starts, so the readers' reference needs no shared mutable
        state."""
        tick = 0
        steps = []
        for size in [self.PRELOAD] + [self.BATCH] * self.BATCHES:
            batch = []
            for _ in range(size):
                tick += 1
                batch.append(
                    Element(
                        element_surrogate=tick,
                        object_surrogate="o",
                        tt_start=Timestamp(tick),
                        vt=Timestamp(rng.randrange(self.VALID_TIMES)),
                    )
                )
            tick += 1
            steps.append((batch, (rng.choice(batch).element_surrogate, tick)))
        return steps

    def test_pinned_reads_equal_reference_at_their_pin(self):
        steps = self._script(random.Random(1992))
        by_vt: dict = {}
        for batch, _close in steps:
            for element in batch:
                by_vt.setdefault(element.vt.ticks, []).append(element)
        closes = dict(close for _batch, close in steps)

        def expected(pin: int, low: int, high: int) -> list:
            """Surrogates stored at *pin* with ``low <= vt < high``, in
            tt order."""
            found = [
                element
                for tick in range(low, high)
                for element in by_vt.get(tick, ())
                if element.tt_start.ticks <= pin
                and closes.get(element.element_surrogate, pin + 1) > pin
            ]
            return sorted(element.element_surrogate for element in found)

        engine = MemoryEngine()
        published = [0]
        done = threading.Event()
        failures: list = []

        def apply(step) -> None:
            batch, (surrogate, tick) = step
            engine.extend(batch)
            engine.close_element(surrogate, Timestamp(tick))
            published[0] = tick

        apply(steps[0])

        def writer() -> None:
            try:
                for step in steps[1:]:
                    apply(step)
            except Exception as error:  # reported by the assertion below
                failures.append(("writer", repr(error)))
            finally:
                done.set()

        def reader(seed: int) -> None:
            local = random.Random(seed)
            reads = 0
            try:
                while not done.is_set() or reads < 20:
                    pin = published[0]
                    low = local.randrange(self.VALID_TIMES)
                    high = low + local.randint(1, 4) if reads % 2 else low + 1
                    if reads % 2:
                        got = engine.valid_overlapping(
                            Interval(Timestamp(low), Timestamp(high)),
                            as_of_tt=Timestamp(pin),
                        )
                    else:
                        got = engine.valid_at(Timestamp(low), as_of_tt=Timestamp(pin))
                    answer = [element.element_surrogate for element in got]
                    if answer != expected(pin, low, high):
                        failures.append((pin, low, high, answer))
                    reads += 1
            except Exception as error:  # reported by the assertion below
                failures.append(("reader", repr(error)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads as finely as possible
        try:
            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader, args=(seed,)) for seed in range(self.READERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        # Every batch after the first went through merge-and-publish.
        assert engine.event_index.inserted_out_of_order == (
            self.PRELOAD + self.BATCH * self.BATCHES
        )
