"""Every key-value store command earns its place.

An AST audit in the style of ``tests/test_config_surface.py``: each public
``KeyValueStore`` name must be called or read as an attribute somewhere under
``src/`` (outside ``repro.kvstore`` itself), ``bench/``, ``examples/`` or
``benchmarks/``. Tests do not count: a command only a test calls is a command
the platform does not need, and it is one more op shape the journal, its
replay and the warehouse compactor that tails it have to carry. The match is
by attribute name, so what the audit catches is the common case: a new
command nothing calls.
"""

from __future__ import annotations

import ast
import pathlib

from repro.kvstore import KeyValueStore

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLED_UNDER = ("src", "bench", "examples", "benchmarks")
OWN_PACKAGE = ROOT / "src" / "repro" / "kvstore"


def attribute_names() -> set[str]:
    names: set[str] = set()
    for top in CALLED_UNDER:
        for path in sorted((ROOT / top).rglob("*.py")):
            if OWN_PACKAGE in path.parents:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return names


def test_every_store_command_has_a_caller():
    public = {name for name in dir(KeyValueStore) if not name.startswith("_")}
    uncalled = sorted(public - attribute_names())
    assert not uncalled, (
        f"KeyValueStore names nothing under {CALLED_UNDER} calls or reads: {uncalled}; "
        "delete each, or call it from the code that needs it"
    )


def test_the_store_surface_stays_small():
    assert len([name for name in dir(KeyValueStore) if not name.startswith("_")]) <= 14
