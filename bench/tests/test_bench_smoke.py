"""Smoke test of the benchmark itself: ``python -m pytest bench/tests``.

Not in ``testpaths``, so the tier-1 suite does not pay for it. Every
workload runs in ``--smoke`` mode (~2 s of measuring) untraced and traced,
through the same command line the driver uses.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
RUN = [sys.executable, str(BENCH / "run.py")]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]

#: Layer metrics that must show work on the workload that exists to
#: exercise them (every other layer may legitimately read 0 there).
MUST_MOVE = {
    "fleet_svrf": ["streams.publish_s", "ingestion.dispatched",
                   "actors.run_s", "models.forecast_s",
                   "forecast_service.batches", "writer.states_written",
                   "kvstore.ops"],
    "cluster4_svrf": ["models.forecast_s", "cluster.hub_pump_s",
                      "cluster.frames_sent", "cluster.busy_s_max",
                      "cluster.codec_decode_us",
                      "cluster.critical_path_positions_per_s"],
    "encounters_push": ["ingestion.dispatched", "actors.run_s",
                        "kvstore.publish_s", "serving.feed_batches",
                        "serving.pushes_sent", "serving.fanout_match_us",
                        "serving.flush_to_push_ms_p50", "serving.idle_s"],
    "warehouse_olap": ["warehouse.compact_s", "warehouse.rows",
                       "warehouse.segments_written",
                       "warehouse.query.heatmap_bbox_ms_p50",
                       "warehouse.partitions_scanned",
                       "warehouse.incremental_rows_per_s"],
}


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])


def test_manifest_is_valid():
    done = run("--check-manifest")
    assert done.returncode == 0, done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run("--workload", workload, "--seed", "5",
                           "--smoke", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    report = json.loads(
        (BENCH / "out" / f"{workload}.untraced.json").read_text())
    assert report["claim"] is None
    assert all(report["checks"].values()), report["checks"]
    assert {"commit", "nproc", "python", "numpy", "blas_threads"} \
        <= set(report["env"])
    assert set(report["env"]["blas_threads"].values()) == {"1"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_the_ledger_and_nested_spans(workload):
    result = result_of(run("--workload", workload, "--seed", "5",
                           "--smoke", "--trace", "1"))
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"] for m in MANIFEST["per_layer"]}
    assert set(result["metrics"]) == expected
    values = {n: m["value"] for n, m in result["metrics"].items()}
    for name in MUST_MOVE[workload]:
        assert values[name] > 0, name
    assert 0.0 <= values["ledger.unaccounted_share"] < 0.25
    assert values["trace.spans"] > 0

    dump = json.loads((BENCH / "out" / f"{workload}.spans.json").read_text())
    assert dump["fields"] == ["name", "start", "end", "parent", "tick", "tag"]
    name, start, end, parent, tick = range(5)
    spans = dump["spans"]
    assert spans[0][name] == "run" and spans[0][parent] == -1
    for span in spans[1:]:
        above = spans[span[parent]]
        assert above[start] <= span[start] <= span[end] <= above[end]
        # Spans of one request share its identifier; only the root (and
        # the drain that follows the last request) sit outside one.
        if above[name] not in ("run", "platform.drain"):
            assert span[tick] == above[tick]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
