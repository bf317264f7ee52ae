"""Regenerate ``tests/sim/fingerprints.json``: the report digest of every
campaign run tier-1 makes, keyed ``campaign/scenario/seed<N>``.

Usage (from the repo root)::

    PYTHONPATH=src python -m tests.sim.regen_fingerprints

Run it only when a change is *meant* to move fingerprints; the diff of the
JSON file is the re-baseline, and its reason belongs in the commit.
"""

from __future__ import annotations

import json
import tempfile

from repro.sim import (
    run_rebalance_scenario,
    run_recovery_scenario,
    run_scenario,
    run_voyage_scenario,
    run_warehouse_scenario,
)
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


def _recovery_on_disk(scenario, seed):
    with tempfile.TemporaryDirectory() as workdir:
        return run_recovery_scenario(scenario, seed, workdir=workdir)


def tier1_runs():
    """``(key, run)`` for every campaign run tier-1 makes and asserts a
    fingerprint for; ``run()`` returns the report."""
    legs = [
        ("scenario", test_scenarios, test_scenarios.SCENARIOS, run_scenario),
        (
            "scenario",
            test_telemetry_determinism,
            (test_telemetry_determinism.LOSSY, test_telemetry_determinism.BATCHED),
            run_scenario,
        ),
        ("recovery", test_recovery, (test_recovery.RECOVERY,), run_recovery_scenario),
        ("recovery-disk", test_recovery, (test_recovery.RECOVERY,), _recovery_on_disk),
        (
            "rebalance",
            test_rebalance,
            (test_rebalance.BASELINE, test_rebalance.CRASH, test_rebalance.DRAIN),
            run_rebalance_scenario,
        ),
        (
            "voyage",
            test_voyage,
            (test_voyage.BASELINE, test_voyage.CRASH, test_voyage.MIGRATE),
            run_voyage_scenario,
        ),
        ("warehouse", test_warehouse, (test_warehouse.SCENARIO,), run_warehouse_scenario),
    ]
    for campaign, module, scenarios, run in legs:
        seeds = range(max(TIER1_SEEDS, getattr(module, "SIM_MIN_SEEDS", 0)))
        for scenario in scenarios:
            for seed in seeds:
                key = fingerprint_key(campaign, scenario.name, seed)
                yield key, lambda run=run, scenario=scenario, seed=seed: run(scenario, seed)


def main() -> None:
    golden = {}
    for key, run in tier1_runs():
        golden[key] = run().fingerprint()
        print(key, golden[key][:16], flush=True)
    FINGERPRINTS.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} fingerprints to {FINGERPRINTS}")


if __name__ == "__main__":
    main()
