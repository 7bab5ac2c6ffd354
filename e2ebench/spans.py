"""Spans around the public entry points of each ``repro`` layer.

The benchmark's traced run starts the server through this file::

    python3 e2ebench/spans.py --dump DIR serve --port 0 ...

which wraps each entry point in :data:`LAYER_SPANS` with a recording
span and then runs the ordinary ``repro serve`` command line.  Nothing
under ``src/`` is edited: the wrappers replace class and module
attributes before the server starts.

A span records its name, its parent (the innermost span open on the
same thread when it began), its wall-clock interval and the thread's
CPU time at both ends.  Spans are kept in memory as a flat integer
array and written to ``DIR`` when the process receives ``SIGUSR1``.
A span around a call that returns an iterator opens when the caller
first asks for an element and closes when the iterator is exhausted, so
the caller's lazy consumption is inside it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import signal
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

#: One recorded span, in the order its fields sit in the flat array.
FIELDS = ("id", "parent", "entry", "t0", "t1", "c0", "c1")
WIDTH = len(FIELDS)

#: span name -> the entry points it wraps, as (module, attribute path,
#: kind).  Kinds: "call" for a function or method, "classmethod", and
#: "iter" for a method returning an iterator the caller consumes.
LAYER_SPANS: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "server.protocol.decode": (
        ("repro.server.http", "Request.json", "call"),
        ("repro.server.protocol", "BulkRequest.from_json", "classmethod"),
        ("repro.server.protocol", "StatementRequest.from_json", "classmethod"),
    ),
    "server.protocol.encode": (
        ("repro.server.protocol", "elements_to_json", "call"),
        ("repro.server.protocol", "rows_to_json", "call"),
        ("repro.server.http", "Response.json", "classmethod"),
    ),
    "server.http.serialize": (("repro.server.http", "Response.serialize", "call"),),
    "query.parse": (("repro.query.tql", "parse", "call"),),
    "query.plan": (("repro.query.planner", "Planner.plan", "call"),),
    "query.execute": (("repro.database", "TemporalDatabase.execute", "call"),),
    "relation.append": (
        ("repro.relation.temporal_relation", "TemporalRelation.append_many", "call"),
    ),
    "relation.pin": (
        ("repro.relation.temporal_relation", "TemporalRelation.pin_epoch", "call"),
    ),
    "relation.read": tuple(
        ("repro.relation.temporal_relation", f"TemporalRelation.{method}", "call")
        for method in ("valid_at", "valid_overlapping", "as_of")
    ),
    "core.observe": (("repro.core.constraints", "ConstraintSet.observe_batch", "call"),),
    "storage.extend": (
        ("repro.storage.memory", "MemoryEngine.extend", "call"),
        ("repro.storage.logfile", "LogFileEngine.extend", "call"),
    ),
    "storage.read": tuple(
        (module, f"{engine}.{method}", "iter")
        for module, engine in (
            ("repro.storage.memory", "MemoryEngine"),
            ("repro.storage.logfile", "LogFileEngine"),
        )
        for method in ("valid_at", "valid_overlapping", "as_of")
    ),
    "views.record": (("repro.views.standing", "ViewRegistry.record_insert_many", "call"),),
}

#: span -> the span it belongs to when called inside it.  The sequenced-
#: key check's point lookups are part of ``relation.append``'s self time
#: (staging, key check, stamps), not reads.
PART_OF = {"storage.read": "relation.append"}


class Tracer:
    """Records spans from any thread into one flat ``array('q')``.

    A span is appended when it ends, so a parent always follows its
    children.  ``array.extend`` with a tuple runs without releasing the
    interpreter lock, which keeps concurrent appends from interleaving.
    """

    def __init__(self) -> None:
        self.entries: List[Tuple[str, str]] = []  # entry index -> (span, wrapped)
        self.spans = array("q")
        self._ids = itertools.count(1)
        self._local = threading.local()

    def entry(self, span: str, wrapped: str) -> int:
        self.entries.append((span, wrapped))
        return len(self.entries) - 1

    def inside(self, entry: int) -> bool:
        """Does the innermost open span on this thread swallow *entry*?

        It does when it has the same span name (an engine delegating to
        its mirror, ``rows_to_json`` to ``elements_to_json``), or when
        :data:`PART_OF` makes *entry*'s span part of it.
        """
        stack = getattr(self._local, "stack", None)
        if not stack:
            return False
        open_span, span = self.entries[stack[-1][2]][0], self.entries[entry][0]
        return open_span == span or PART_OF.get(span) == open_span

    def begin(self, entry: int) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][0] if stack else 0
        token = [next(self._ids), parent, entry, time.perf_counter_ns(), time.thread_time_ns()]
        stack.append(token)
        return token

    def discard(self, token: List[int]) -> None:
        """Close *token* without recording it."""
        self._local.stack.remove(token)

    def end(self, token: List[int]) -> None:
        c1 = time.thread_time_ns()
        t1 = time.perf_counter_ns()
        stack = getattr(self._local, "stack", [])
        if stack and stack[-1] is token:
            stack.pop()
        elif token in stack:  # an iterator closed while a later span was open
            stack.remove(token)
        span_id, parent, entry, t0, c0 = token
        self.spans.extend((span_id, parent, entry, t0, t1, c0, c1))

    def dump(self, directory: str) -> None:
        """Write ``entries.json`` and ``spans.bin``, then ``done``."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "spans.bin"), "wb") as handle:
            handle.write(array("q", self.spans).tobytes())
        with open(os.path.join(directory, "entries.json"), "w") as handle:
            json.dump(self.entries, handle)
        with open(os.path.join(directory, "done"), "w") as handle:
            handle.write("ok\n")


def _spanned(tracer: Tracer, entry: int, iterator: Iterator[Any]) -> Iterator[Any]:
    """Delegates to *iterator* inside a span that opens at the first
    ``next`` and closes when the iterator is exhausted or closed."""
    token = tracer.begin(entry)
    try:
        yield from iterator
    finally:
        tracer.end(token)


def _wrap(tracer: Tracer, entry: int, fn: Callable[..., Any], lazy: bool) -> Callable[..., Any]:
    # A call the open span swallows (Tracer.inside) runs unwrapped.
    if lazy:

        @functools.wraps(fn)
        def traced_iter(*args: Any, **kwargs: Any) -> Any:
            if tracer.inside(entry):
                return fn(*args, **kwargs)
            # Open while the iterator is built, so that calls it makes
            # are swallowed, but recorded only once it is consumed.
            token = tracer.begin(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.discard(token)
            return _spanned(tracer, entry, iter(result))

        return traced_iter

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if tracer.inside(entry):
            return fn(*args, **kwargs)
        token = tracer.begin(entry)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(token)

    return traced


def install(tracer: Tracer) -> None:
    """Replace every entry point in :data:`LAYER_SPANS` with a recording
    wrapper."""
    for span, targets in LAYER_SPANS.items():
        for module_name, path, kind in targets:
            owner: Any = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            entry = tracer.entry(span, path)
            if kind == "classmethod":
                original = owner.__dict__[attribute].__func__
                setattr(owner, attribute, classmethod(_wrap(tracer, entry, original, False)))
            else:
                original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
                    owner, attribute
                )
                setattr(owner, attribute, _wrap(tracer, entry, original, kind == "iter"))


# -- reading a dump ----------------------------------------------------------------------


def load(directory: str) -> Tuple[List[Tuple[str, str]], List[Tuple[int, ...]]]:
    """The entry table and the span tuples of a dump."""
    with open(os.path.join(directory, "entries.json")) as handle:
        entries = [tuple(pair) for pair in json.load(handle)]
    flat = array("q")
    with open(os.path.join(directory, "spans.bin"), "rb") as handle:
        flat.frombytes(handle.read())
    spans = [tuple(flat[i : i + WIDTH]) for i in range(0, len(flat), WIDTH)]
    return entries, spans  # type: ignore[return-value]


def covered(intervals: Iterable[Tuple[int, int]], start: int, stop: int) -> int:
    """Length of the union of *intervals*, clipped to ``[start, stop)``."""
    total = 0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, stop)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Sequence[Tuple[int, ...]]) -> Dict[int, int]:
    """span id -> its duration minus the union of its children's
    intervals (children that overlap each other are counted once)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span_id, parent, _entry, t0, t1, _c0, _c1 in spans:
        if parent:
            children.setdefault(parent, []).append((t0, t1))
    return {
        span_id: (t1 - t0) - covered(children.get(span_id, ()), t0, t1)
        for span_id, _parent, _entry, t0, t1, _c0, _c1 in spans
    }


def main(argv: Sequence[str]) -> int:
    """``--dump DIR <repro command line>``: run ``repro`` with spans."""
    if len(argv) < 2 or argv[0] != "--dump":
        print("usage: spans.py --dump DIR serve [repro serve options]", file=sys.stderr)
        return 2
    directory, command = argv[1], list(argv[2:])
    tracer = Tracer()
    install(tracer)
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: tracer.dump(directory))
    from repro.cli import main as repro_main

    return repro_main(command)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
