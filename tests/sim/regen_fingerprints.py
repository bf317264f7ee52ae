"""Regenerate ``tests/sim/fingerprints.json``: the report digest of every
campaign run tier-1 makes, keyed ``campaign/scenario/seed<N>``.

Usage (from the repo root)::

    PYTHONPATH=src python -m tests.sim.regen_fingerprints
    PYTHONPATH=src python -m tests.sim.regen_fingerprints --fields > fields.txt

Run it only when a change is *meant* to move fingerprints; the diff of the
JSON file is the re-baseline, and its reason belongs in the commit.
``--fields`` writes nothing: it prints one digest per digested observable
of every run (``key name digest``), so diffing its output at two commits
names the observables behind each moved fingerprint.
"""

from __future__ import annotations

import argparse
import json
import tempfile

from repro.sim import run, run_warehouse_scenario
from tests.sim import (
    test_rebalance,
    test_recovery,
    test_scenarios,
    test_telemetry_determinism,
    test_voyage,
    test_warehouse,
)
from tests.sim.conftest import FINGERPRINTS, fingerprint_key

#: ``--sim-seeds``'s default (tests/conftest.py): the tier-1 sweep width.
TIER1_SEEDS = 2

#: The cluster suites: each declares its ``CAMPAIGN`` key and its
#: ``SCENARIOS``, and every scenario goes through ``run``.
CLUSTER_SUITES = (
    test_scenarios,
    test_telemetry_determinism,
    test_recovery,
    test_rebalance,
    test_voyage,
)


def _on_disk(scenario, seed):
    with tempfile.TemporaryDirectory() as workdir:
        return run(scenario, seed, workdir=workdir)


def tier1_runs():
    """``(key, run)`` for every campaign run tier-1 makes and asserts a
    fingerprint for; ``run()`` returns the report."""
    legs = [(suite.CAMPAIGN, suite, run) for suite in CLUSTER_SUITES]
    legs += [
        ("recovery-disk", test_recovery, _on_disk),
        (test_warehouse.CAMPAIGN, test_warehouse, run_warehouse_scenario),
    ]
    for campaign, suite, runner in legs:
        seeds = range(max(TIER1_SEEDS, getattr(suite, "SIM_MIN_SEEDS", 0)))
        for scenario in suite.SCENARIOS:
            for seed in seeds:
                key = fingerprint_key(campaign, scenario.name, seed)
                yield key, lambda run=runner, scenario=scenario, seed=seed: run(scenario, seed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fields", action="store_true", help="print per-field digests, write nothing"
    )
    if parser.parse_args().fields:
        for key, run in tier1_runs():
            for name, digest in run().field_fingerprints().items():
                print(key, name, digest[:16], flush=True)
        return
    golden = {}
    for key, run in tier1_runs():
        golden[key] = run().fingerprint()
        print(key, golden[key][:16], flush=True)
    FINGERPRINTS.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} fingerprints to {FINGERPRINTS}")


if __name__ == "__main__":
    main()
