"""Every configuration field earns its place.

An AST audit in the style of the wall-clock audit
(``tests/cluster/test_virtual_clock.py``): each ``PlatformConfig`` /
``ClusterConfig`` / ``ServingConfig`` field must be passed as a keyword somewhere under
``tests/``, ``bench/``, ``examples/`` or ``benchmarks/`` — a ``name=value``
call keyword or a ``{"name": value}`` dict key that is splatted into the
config — or sit on the allow-list below with its reason. A keyword inside
a ``with pytest.raises(...)`` block does not count: a test that only shows
the config rejects a bad value exercises the validation, not the knob. A
knob nothing exercises is a constant, and belongs beside the code that
reads it. The match is by name (test helpers forward ``**overrides`` into
the configs), so what the audit catches is the common case: a new knob
nothing mentions.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import fields

from repro.cluster import ClusterConfig
from repro.platform import PlatformConfig
from repro.serving import ServingConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXERCISED_UNDER = ("tests", "bench", "examples", "benchmarks")

#: Fields nothing varies yet, each with the reason it stays configurable.
ALLOWED_UNEXERCISED = {
    # Deployment settings: where the AIS stream lives on the broker
    # (ROADMAP item 2(a) aligns partitions with the shard table).
    "ais_topic": "deployment setting",
    "ais_partitions": "deployment setting",
    # Where the serving tier listens.
    "host": "deployment setting",
    # ``bench/workloads/encounters.py`` reads it off ``ServingConfig()`` to
    # fit its bbox subscriptions as the server does.
    "max_region_cells": "read by the encounters_push workload",
}


def is_raises_block(node: ast.AST) -> bool:
    """``with pytest.raises(...)`` (or a bare ``raises(...)``)."""
    if not isinstance(node, ast.With):
        return False
    for item in node.items:
        call = item.context_expr
        if isinstance(call, ast.Call):
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "raises":
                return True
    return False


def walk_outside_raises(node: ast.AST):
    """``ast.walk`` that skips every ``pytest.raises`` block."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not is_raises_block(child):
            yield from walk_outside_raises(child)


def exercised_names() -> set[str]:
    names: set[str] = set()
    for top in EXERCISED_UNDER:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in walk_outside_raises(tree):
                if isinstance(node, ast.keyword) and node.arg is not None:
                    names.add(node.arg)
                elif isinstance(node, ast.Dict):
                    names.update(
                        key.value
                        for key in node.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    )
    return names


def test_every_config_field_is_exercised_or_allow_listed():
    used = exercised_names()
    declared = {
        f.name for config in (PlatformConfig, ClusterConfig, ServingConfig) for f in fields(config)
    }
    unexercised = sorted(declared - used - ALLOWED_UNEXERCISED.keys())
    assert not unexercised, (
        f"config fields nothing under {EXERCISED_UNDER} ever sets: {unexercised}; "
        "make each a constant beside its reader, exercise it, or allow-list it with a reason"
    )
    stale = sorted(name for name in ALLOWED_UNEXERCISED if name not in declared)
    assert not stale, f"allow-listed names that are no longer config fields: {stale}"


def test_a_keyword_under_pytest_raises_does_not_count():
    tree = ast.parse(
        "with pytest.raises(ValueError):\n    Config(rejected=-1)\nConfig(exercised=1)\n"
    )
    keywords = {node.arg for node in walk_outside_raises(tree) if isinstance(node, ast.keyword)}
    assert keywords == {"exercised"}


def test_the_config_surface_stays_small():
    assert len(fields(PlatformConfig)) <= 20
    assert len(fields(ClusterConfig)) <= 11
    assert len(fields(ServingConfig)) <= 6
