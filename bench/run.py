#!/usr/bin/env python3
"""One runner for the whole pipeline's benchmark.

    python3 bench/run.py --workload fleet_svrf --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --all            # every workload, untraced then traced
    python3 bench/run.py --all --smoke    # the same at ~2 s per run
    python3 bench/run.py --check-manifest

One invocation sets a workload up (three times over; ``setup_s`` is the
import time plus the median construction), measures it on a run sized by
``--seconds``, checks its outputs, prints every metric by name with its unit, writes a
stamped report under ``bench/out/`` and ends with the one-line JSON result
the driver reads. ``--trace 0`` yields the end-to-end metrics; ``--trace
1`` repeats the same workload and seed with benchmark-side spans around
the calls into each layer and yields the per-layer ledger.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isfile(os.path.join(_ROOT, "src", "repro", "__init__.py")):
    sys.exit("bench/run.py: src/repro is not beside bench/; the benchmark "
             "runs the program from a full checkout")
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from bench import THREAD_VARS  # noqa: E402

# Pinned before numpy loads, or the BLAS pool is already sized.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

from bench import harness, manifest  # noqa: E402
from bench.spans import NullTracer, Tracer  # noqa: E402

#: name -> (module, class); imported on use so ``setup_s`` sees the import.
WORKLOADS = {
    "fleet_svrf": ("bench.workloads.fleet", "FleetSvrf"),
    "cluster4_svrf": ("bench.workloads.fleet", "Cluster4Svrf"),
    "encounters_push": ("bench.workloads.encounters", "EncountersPush"),
    "warehouse_olap": ("bench.workloads.warehouse", "WarehouseOlap"),
}
SETUP_REPEATS = 3
SMOKE_SECONDS = 2.0
DEFAULT_SEED = 3


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool) -> dict:
    """Set up, measure and check one workload; returns the report."""
    spec = manifest.load()
    module_name, class_name = WORKLOADS[name]
    workload_class = getattr(importlib.import_module(module_name), class_name)
    imported = time.perf_counter()
    reference = harness.SpeedReference()
    reference.sample(reference.NEIGHBOURS)

    constructions: list[tuple[float, float]] = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        start = time.perf_counter()
        workload = workload_class(seed, seconds, smoke)
        constructions.append((start, time.perf_counter()))
        reference.sample(reference.NEIGHBOURS)
    tracer = Tracer() if traced else NullTracer()
    try:
        outcome = workload.measure(seconds, tracer, reference)
    finally:
        workload.close()

    # Set-up is the imports (the kernel cannot run before numpy loads, so
    # they take the speed sampled right after) plus the median of the
    # constructions; like every time, reported at reference speed.
    import_s = imported - _PROCESS_START
    scaled, wall_clock = reference.durations(constructions)
    setup_raw = import_s + statistics.median(wall_clock)
    setup_s = import_s * reference.scale(imported, imported) \
        + statistics.median(scaled)
    rss = harness.peak_rss_mb()
    metrics = dict(outcome.metrics, setup_s=setup_s, peak_rss_mb=rss)
    raw = dict(outcome.raw, setup_s=setup_raw, peak_rss_mb=rss)
    end_units = manifest.units(spec, "end_to_end")
    layer_units = manifest.units(spec, "per_layer")
    unknown = (set(metrics) - set(end_units)) | (set(outcome.layers)
                                                 - set(layer_units))
    missing = set(end_units) - set(metrics)
    if unknown or missing:
        raise SystemExit(f"{name}: metrics not in BENCHMARK.json "
                         f"{sorted(unknown)}, missing {sorted(missing)}")
    report = {
        "schema": 1,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "smoke": smoke,
        "env": harness.environment(),
        "params": outcome.params,
        "aliases": workload_class.aliases,
        "setup": {"import_s": import_s,
                  "construct_s": wall_clock},
        "end_to_end": {n: {"value": metrics[n], "unit": end_units[n]}
                       for n in end_units},
        # The same metrics as plain wall-clock time (see SpeedReference).
        "end_to_end_wall_clock": {n: raw[n] for n in end_units},
        # A layer a workload never enters reports 0 work and 0 time.
        "per_layer": {n: {"value": outcome.layers.get(n, 0), "unit": unit}
                      for n, unit in layer_units.items()} if traced else {},
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "correct": all(outcome.checks.values()),
        "claim": None,
    }
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{name}.{'traced' if traced else 'untraced'}"
    with open(harness.OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as out:
        json.dump(report, out, indent=1)
    if traced:
        tracer.dump(harness.OUT_DIR / f"{name}.spans.json")
    return report


def print_report(report: dict) -> None:
    section = "per_layer" if report["traced"] else "end_to_end"
    print(f"== {report['workload']}  seed={report['seed']} "
          f"seconds={report['seconds']} traced={report['traced']}")
    for name, metric in report[section].items():
        alias = report["aliases"].get(name)
        label = f"{name} ({alias})" if alias else name
        print(f"  {label:<42} {metric['value']:>16.6g} {metric['unit']}")
    for name, passed in report["checks"].items():
        print(f"  check {name:<36} {'ok' if passed else 'FAILED'}")
    print(f"  attempted {report['attempted']}  failed {report['failed']}  "
          f"correct {report['correct']}")


def result_line(report: dict) -> str:
    """The last line of standard output: what the driver reads."""
    section = "per_layer" if report["traced"] else "end_to_end"
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report[section],
    })


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload in a process of its own (so import time and peak RSS
    are each workload's), untraced then traced, plus the numbers that need
    two runs to exist."""
    reports: dict[tuple[str, bool], dict] = {}
    for name in WORKLOADS:
        for traced in (False, True):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(int(traced))]
            if smoke:
                command.append("--smoke")
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            lines = done.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            stem = f"{name}.{'traced' if traced else 'untraced'}"
            with open(harness.OUT_DIR / f"{stem}.json",
                      encoding="utf-8") as source:
                reports[name, traced] = json.load(source)

    def value(name: str, traced: bool, section: str, metric: str) -> float:
        return reports[name, traced][section][metric]["value"]

    print("== derived from pairs of runs")
    per_position = {
        name: 1e6 / value(name, False, "end_to_end", "throughput_per_s")
        for name in ("fleet_svrf", "cluster4_svrf")}
    print(f"  {'cluster.tax_us_per_position':<42} "
          f"{per_position['cluster4_svrf'] - per_position['fleet_svrf']:>16.6g}"
          " us")
    for name in WORKLOADS:
        # The traced run's own end-to-end numbers are in its report file.
        slowdown = (value(name, True, "end_to_end", "latency_ms_p50")
                    / value(name, False, "end_to_end", "latency_ms_p50"))
        print(f"  {'trace.latency_p50_ratio ' + name:<42} {slowdown:>16.6g} "
              "ratio")
    correct = all(r["correct"] and r["failed"] == 0 for r in reports.values())
    print(f"all correct, nothing failed: {correct}")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of "
                             "BENCHMARK.json, or 2 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, ~2 s per run")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--check-manifest", action="store_true")
    args = parser.parse_args(argv)

    if args.check_manifest:
        problems = manifest.check(manifest.load(), list(WORKLOADS))
        for problem in problems:
            print(f"BENCHMARK.json: {problem}")
        print("BENCHMARK.json: " + ("invalid" if problems else "valid"))
        return 1 if problems else 0

    seconds = args.seconds
    if seconds is None:
        seconds = (SMOKE_SECONDS if args.smoke
                   else float(manifest.load()["run_seconds"]))
    if args.all:
        return run_all(args.seed, seconds, args.smoke)
    if args.workload is None:
        parser.error("give --workload, --all or --check-manifest")
    # The generators take non-negative seeds.
    report = run_workload(args.workload, args.seed % (1 << 32), seconds,
                          bool(args.trace), args.smoke)
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
