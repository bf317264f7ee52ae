"""Seed parametrization and failing-seed reporting for the sim suite.

Every test that takes a ``sim_seed`` fixture runs once per seed:

* default: seeds ``0..N-1`` with ``N`` from ``--sim-seeds`` (2 in tier-1,
  raised to 25 by the nightly CI job);
* ``--sim-seed S``: exactly seed ``S`` — the byte-for-byte replay knob
  for a seed the sweep reported as failing.

A test module may set ``SIM_MIN_SEEDS = K`` to guarantee at least ``K``
seeds regardless of ``--sim-seeds`` (acceptance suites that promise
"holds across >= K seeds" stay honest even in the fast tier-1 sweep);
``--sim-seed`` still overrides everything.

Failures of seeded tests are appended to ``sim-failures.log`` in the
rootdir (one line per failure, carrying the seed) so the nightly job can
upload it as an artifact.

Every campaign run tier-1 makes has its report digest checked in, in
``fingerprints.json`` (``campaign/scenario/seed<N>`` -> sha256): the
suites pass the reports they already compute to the ``check_fingerprint``
fixture, so "byte-identical to the parent" is a test, and a deliberate
re-baseline is a reviewed diff of that file, produced by
``PYTHONPATH=src python -m tests.sim.regen_fingerprints``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
REGEN = "PYTHONPATH=src python -m tests.sim.regen_fingerprints"


def fingerprint_key(campaign: str, scenario: str, seed: int) -> str:
    return f"{campaign}/{scenario}/seed{seed}"


@pytest.fixture(scope="session")
def golden_fingerprints() -> dict[str, str]:
    return json.loads(FINGERPRINTS.read_text())


@pytest.fixture
def check_fingerprint(golden_fingerprints):
    """``check(campaign, report)``: the report must digest to its checked-in
    fingerprint. Seeds beyond the tier-1 sweep (the nightly job's) have no
    entry and pass."""

    def check(campaign: str, report) -> None:
        key = fingerprint_key(campaign, report.scenario, report.seed)
        expected = golden_fingerprints.get(key)
        if expected is not None:
            assert report.fingerprint() == expected, (
                f"{key} moved: {report.fingerprint()[:16]} != checked-in {expected[:16]}; "
                f"if intended, re-baseline with `{REGEN}` and state why in the commit"
            )

    return check


def pytest_generate_tests(metafunc):
    if "sim_seed" not in metafunc.fixturenames:
        return
    exact = metafunc.config.getoption("--sim-seed")
    if exact is not None:
        seeds = [exact]
    else:
        n = max(
            metafunc.config.getoption("--sim-seeds"), getattr(metafunc.module, "SIM_MIN_SEEDS", 0)
        )
        seeds = list(range(n))
    metafunc.parametrize("sim_seed", seeds, ids=[f"seed{s}" for s in seeds])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    if not hasattr(item, "callspec") or "sim_seed" not in item.callspec.params:
        return
    seed = item.callspec.params["sim_seed"]
    log = item.config.rootpath / "sim-failures.log"
    with open(log, "a") as fh:
        fh.write(
            f"{item.nodeid} seed={seed} "
            f"(replay: pytest {item.nodeid.split('[')[0]} "
            f"--sim-seed {seed})\n"
        )
