"""``BENCHMARK.json``: loading it and checking it against the contract.

The manifest is the only table of metric names, units, directions and
bounds; the runner reads it to know what to print, and the workloads'
values are matched against it by name on every run.
"""

from __future__ import annotations

import json
import re

from bench.harness import BENCH_DIR, ROOT

MANIFEST_PATH = ROOT / "BENCHMARK.json"
COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")
_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
         "per_layer"}
_DIRECTIONS = ("higher", "lower")
#: Runs the driver makes and the seconds it allows for all of them.
_DRIVER_RUNS_FIXED, _DRIVER_RUNS_PER_WORKLOAD = 4, 22
_DRIVER_BUDGET_S = 3_420


def load() -> dict:
    with open(MANIFEST_PATH, encoding="utf-8") as source:
        return json.load(source)


def units(manifest: dict, section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in manifest[section]}


def check(manifest: dict, workload_names: list[str]) -> list[str]:
    """Every way ``manifest`` breaks the builder contract (empty: valid)."""
    problems: list[str] = []

    def need(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    need(set(manifest) == _KEYS,
         f"keys must be exactly {sorted(_KEYS)}, got {sorted(manifest)}")
    if problems:
        return problems
    need(MANIFEST_PATH.stat().st_size <= 64 * 1024, "file exceeds 64 KiB")

    need(manifest["command"] == COMMAND,
         f"command must be the one that runs: {COMMAND}")
    need(len(manifest["command"]) <= 32
         and all(isinstance(a, str) and len(a) <= 200
                 for a in manifest["command"]), "command too long")
    need(manifest["paths"] == PATHS, f"paths must be {PATHS}")
    for path in manifest["paths"]:
        need(bool(_PATH.match(path)) and not path.startswith("/")
             and ".." not in path.split("/"), f"bad path {path!r}")
        need((ROOT / path).resolve() == BENCH_DIR,
             f"path {path!r} is not the benchmark's directory")

    seconds = manifest["run_seconds"]
    need(isinstance(seconds, int) and not isinstance(seconds, bool)
         and 1 <= seconds <= 60, "run_seconds must be a whole number 1..60")

    names: list[str] = []
    workloads = manifest["workloads"]
    need(2 <= len(workloads) <= 8, "need 2 to 8 workloads")
    for workload in workloads:
        need(set(workload) == {"name", "why"},
             f"workload keys must be name and why: {workload}")
        why = workload.get("why", "")
        need(isinstance(why, str) and 0 < len(why) <= 200
             and "\n" not in why,
             f"why of {workload.get('name')} must be one line of <= 200")
        names.append(workload.get("name", ""))
    need([w.get("name") for w in workloads] == workload_names,
         f"workloads must be the runner's: {workload_names}")

    end_to_end = manifest["end_to_end"]
    need(1 <= len(end_to_end) <= 16, "need 1 to 16 end-to-end metrics")
    for metric in end_to_end:
        need(set(metric) == {"name", "unit", "better", "bound"},
             f"end-to-end keys must be name, unit, better, bound: {metric}")
        bound = metric.get("bound")
        need(isinstance(bound, (int, float)) and not isinstance(bound, bool)
             and 0 < bound <= 0.25,
             f"bound of {metric.get('name')} must be in (0, 0.25]")
    setup = [m for m in end_to_end if m.get("name") == "setup_s"]
    need(len(setup) == 1 and setup[0].get("unit") == "s"
         and setup[0].get("better") == "lower",
         "one end-to-end metric must be setup_s, unit s, better lower")
    if setup:
        need(setup[0]["bound"] == max(m["bound"] for m in end_to_end),
             "setup_s must carry the largest bound")

    per_layer = manifest["per_layer"]
    need(1 <= len(per_layer) <= 128, "need 1 to 128 per-layer metrics")
    for metric in per_layer:
        need(set(metric) == {"name", "unit", "better"},
             f"per-layer keys must be name, unit, better: {metric}")

    for metric in end_to_end + per_layer:
        names.append(metric.get("name", ""))
        need(bool(_UNIT.match(str(metric.get("unit", "")))),
             f"bad unit on {metric.get('name')}: {metric.get('unit')!r}")
        need(metric.get("better") in _DIRECTIONS,
             f"better of {metric.get('name')} must be higher or lower")
    for name in names:
        need(isinstance(name, str) and bool(_NAME.match(name)),
             f"bad name {name!r}")
    need(len(set(names)) == len(names), "a name is used more than once")

    runs = _DRIVER_RUNS_FIXED + _DRIVER_RUNS_PER_WORKLOAD * len(workloads)
    need(isinstance(seconds, int) and runs * seconds < _DRIVER_BUDGET_S,
         f"{runs} runs of {seconds} s leave no room in {_DRIVER_BUDGET_S} s")
    return problems
