"""Process-wide runtime settings: the ``REPRO_*`` environment, read once.

The only module that reads the environment.  :func:`current` is the
frozen :class:`Config` parsed at import; a variable changed later has
no effect, so tests and benchmarks scope a value with
``with config.override(result_cache=0): ...``.  ``docs/storage.md``
("Settings") tabulates the variables.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional

DEFAULT_SEGMENT_SIZE = 4096
#: The result-cache budget of a ``REPRO_RESULT_CACHE`` that is not an integer.
DEFAULT_RESULT_ENTRIES = 256


def _flag(raw: Optional[str]) -> bool:
    """The flag rule: ``""``, ``0``, ``false``, ``no``, ``off`` (any case) are off."""
    return raw is not None and raw.strip().lower() not in ("", "0", "false", "no", "off")


def _int(raw: Optional[str], malformed: Optional[int] = None) -> Optional[int]:
    """The integer rule: unset or blank is None; what ``int()`` rejects
    is *malformed*."""
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError:
        return malformed


@dataclass(frozen=True)
class Config:
    """One process's settings, one field per ``REPRO_*`` variable."""

    #: ``REPRO_METRICS``: instrumentation starts enabled (``metrics.enable``
    #: / ``disable`` flip it at run time).
    metrics: bool = False
    #: ``REPRO_SEGMENT_SIZE``: elements per sealed segment (at least 2).
    segment_size: int = DEFAULT_SEGMENT_SIZE
    #: ``REPRO_SHARDS``: N >= 2 shards every default engine; 0 is off.
    shards: int = 0
    #: ``REPRO_TIERED``: force the cold tier on/off; None defers to ``tier_dir``.
    tiered: Optional[bool] = None
    #: ``REPRO_VIEWS``: register ``__env_current__`` on every relation.
    views: bool = False
    #: ``REPRO_RESULT_CACHE``: 0 disables every query-cache layer; N > 0
    #: is the result-cache entry budget; None leaves only that layer off.
    result_cache: Optional[int] = None

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "Config":
        env = os.environ if environ is None else environ
        segment_size = _int(env.get("REPRO_SEGMENT_SIZE")) or 0
        shards = _int(env.get("REPRO_SHARDS")) or 0
        result_cache = _int(env.get("REPRO_RESULT_CACHE"), DEFAULT_RESULT_ENTRIES)
        tiered = env.get("REPRO_TIERED", "")
        return cls(
            metrics=_flag(env.get("REPRO_METRICS")),
            segment_size=segment_size if segment_size >= 2 else DEFAULT_SEGMENT_SIZE,
            shards=shards if shards >= 2 else 0,
            tiered=_flag(tiered) if tiered.strip() else None,
            views=_flag(env.get("REPRO_VIEWS")),
            result_cache=None if result_cache is None or result_cache < 0 else result_cache,
        )


_current = Config.from_env()


def current() -> Config:
    return _current


@contextmanager
def override(**fields: object) -> Iterator[Config]:
    """Replace *fields* of :func:`current` for a ``with`` block, process-wide
    (unknown names raise ``TypeError``).  ``metrics`` is read only at
    import: scope instrumentation with ``metrics.enabled_scope`` instead."""
    global _current
    previous = _current
    _current = replace(previous, **fields)  # type: ignore[arg-type]
    try:
        yield _current
    finally:
        _current = previous
