"""``repro.config``: the one reader of the ``REPRO_*`` environment.

The table pins both parsing rules (flags, integers with their
fallbacks) for every variable; the rest checks that the settings are
read once, that ``override`` is the way to change them, and that no
other module reads the environment.
"""

from __future__ import annotations

import pathlib
import re

import pytest

import repro
from repro import config
from repro.chronos.clock import LogicalClock
from repro.query.cache import relation_cache
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.segments import SegmentedStore

DEFAULTS = config.Config()

FROM_ENV_CASES = [
    ({}, DEFAULTS),
    # Flags: "", 0, false, no, off are off (any case, any padding).
    *(
        ({"REPRO_METRICS": raw}, DEFAULTS)
        for raw in ("", "0", "false", "False", "no", "NO", "off", " off ")
    ),
    *(
        ({"REPRO_METRICS": raw}, config.Config(metrics=True))
        for raw in ("1", "true", "yes", "on")
    ),
    ({"REPRO_VIEWS": "0"}, DEFAULTS),
    ({"REPRO_VIEWS": "off"}, DEFAULTS),
    ({"REPRO_VIEWS": "1"}, config.Config(views=True)),
    # REPRO_TIERED: unset or blank defers (None), otherwise a flag.
    ({"REPRO_TIERED": ""}, DEFAULTS),
    ({"REPRO_TIERED": "  "}, DEFAULTS),
    ({"REPRO_TIERED": "0"}, config.Config(tiered=False)),
    ({"REPRO_TIERED": "no"}, config.Config(tiered=False)),
    ({"REPRO_TIERED": "1"}, config.Config(tiered=True)),
    # Integers: unset or blank -> unset value, malformed -> fallback.
    ({"REPRO_SEGMENT_SIZE": "64"}, config.Config(segment_size=64)),
    ({"REPRO_SEGMENT_SIZE": " 64 "}, config.Config(segment_size=64)),
    ({"REPRO_SEGMENT_SIZE": ""}, DEFAULTS),
    ({"REPRO_SEGMENT_SIZE": "bogus"}, DEFAULTS),
    ({"REPRO_SEGMENT_SIZE": "1"}, DEFAULTS),
    ({"REPRO_SEGMENT_SIZE": "-5"}, DEFAULTS),
    ({"REPRO_SHARDS": "4"}, config.Config(shards=4)),
    ({"REPRO_SHARDS": ""}, DEFAULTS),
    ({"REPRO_SHARDS": "1"}, DEFAULTS),
    ({"REPRO_SHARDS": "four"}, DEFAULTS),
    ({"REPRO_RESULT_CACHE": ""}, DEFAULTS),
    ({"REPRO_RESULT_CACHE": "0"}, config.Config(result_cache=0)),
    ({"REPRO_RESULT_CACHE": "4"}, config.Config(result_cache=4)),
    ({"REPRO_RESULT_CACHE": "-1"}, DEFAULTS),
    (
        {"REPRO_RESULT_CACHE": "lots"},
        config.Config(result_cache=config.DEFAULT_RESULT_ENTRIES),
    ),
    # The CI legs.
    (
        {"REPRO_SHARDS": "4", "REPRO_SEGMENT_SIZE": "64", "REPRO_RESULT_CACHE": "4"},
        config.Config(shards=4, segment_size=64, result_cache=4),
    ),
    (
        {"REPRO_TIERED": "1", "REPRO_SEGMENT_SIZE": "64", "REPRO_VIEWS": "1"},
        config.Config(tiered=True, segment_size=64, views=True),
    ),
]


@pytest.mark.parametrize(("environ", "expected"), FROM_ENV_CASES)
def test_from_env(environ, expected):
    assert config.Config.from_env(environ) == expected


def make_relation():
    schema = TemporalSchema(name="configured", time_varying=("reading",))
    return TemporalRelation(schema, clock=LogicalClock(start=1))


def test_environment_changes_after_import_are_ignored(monkeypatch):
    with config.override(result_cache=None):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        assert relation_cache(make_relation()) is not None
    with config.override(result_cache=0):
        assert relation_cache(make_relation()) is None


def test_override_reaches_store_and_relation_construction():
    with config.override(segment_size=64, views=True, tiered=None):
        assert SegmentedStore().segment_size == 64
        assert "__env_current__" in make_relation().views.names()
    with config.override(views=False):
        assert not make_relation().has_views


def test_override_restores_on_exit_and_rejects_unknown_fields():
    before = config.current()
    with pytest.raises(RuntimeError):
        with config.override(shards=3):
            assert config.current().shards == 3
            raise RuntimeError
    assert config.current() is before
    with pytest.raises(TypeError):
        with config.override(tier_cache=1):
            pass


def test_only_config_reads_the_environment():
    package = pathlib.Path(repro.__file__).parent
    readers = re.compile(r"\bos\.(environ|getenv)\b|\bfrom os import\b.*\b(environ|getenv)\b")
    offenders = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if path.name != "config.py" or path.parent != package
        if readers.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
