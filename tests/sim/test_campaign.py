"""The campaign primitive itself: the action table, orderly windows, the
report digest and the mmsi picker. The per-campaign suites exercise it
end to end; these pin the contracts they all lean on."""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

import pytest

from repro.cluster import shard_for_key
from repro.cluster.sharding import ShardTable
from repro.sim import FaultSpec, FaultStep, Scenario, Violation
from repro.sim.campaign import CampaignReport, ClusterCampaign, mmsis_owned_by
from repro.sim.workload import generate_workload

ARMED = FaultSpec(dup_p=1.0)
CALM = FaultSpec()
CHUNKS = generate_workload(0, steps=3).messages_by_step


def _campaign(*script: FaultStep) -> ClusterCampaign:
    scenario = Scenario(name="primitive", num_nodes=2, steps=3, faults=ARMED, script=script)
    campaign = ClusterCampaign(scenario, seed=0)
    campaign.arm()
    return campaign


def test_unknown_action_raises():
    with _campaign() as campaign:
        with pytest.raises(ValueError, match="unknown fault action"):
            campaign.apply(FaultStep(0, "defenestrate"))


def test_steps_fire_after_their_chunk_in_script_order():
    first, second = FaultSpec(delay_p=0.5), FaultSpec(reorder_p=0.5)
    # Listed first but named for a later chunk: must not fire early. The
    # two steps sharing boundary 1 fire in script order, so the later wins.
    last = FaultStep(2, "set_faults", {"faults": CALM})
    one = FaultStep(1, "set_faults", {"faults": first})
    two = FaultStep(1, "set_faults", {"faults": second})
    seen = {}
    with _campaign(last, one, two) as campaign:
        campaign.drive(CHUNKS, at_boundary=lambda k: seen.update({k: campaign.hub.faults}))
    assert seen == {0: ARMED, 1: second, 2: CALM}

    with _campaign(last, two, one) as campaign:
        campaign.drive(CHUNKS[:2])
        assert campaign.hub.faults == first


def test_drive_numbers_chunks_from_first():
    seen = []
    with _campaign(FaultStep(1, "set_faults", {"faults": CALM})) as campaign:
        campaign.drive(CHUNKS[:1], at_boundary=seen.append)
        assert campaign.hub.faults == ARMED
        campaign.drive(CHUNKS[1:], first=1, at_boundary=seen.append)
        assert campaign.hub.faults == CALM
    assert seen == [0, 1, 2]


def test_orderly_step_pauses_faults_and_rearms():
    with _campaign() as campaign:
        before = campaign.counters()["faults_duplicated"]
        campaign.apply(FaultStep(0, "tick", {"dt_s": 2.0}, orderly=True))
        assert campaign.counters()["faults_duplicated"] == before
        assert campaign.hub.faults == ARMED
        assert campaign.hub.in_transit == 0
        campaign.apply(FaultStep(0, "tick", {"dt_s": 2.0}))
        assert campaign.counters()["faults_duplicated"] > before


def test_orderly_step_rearms_even_when_the_action_raises():
    with _campaign() as campaign:
        with pytest.raises(ValueError, match="no running node"):
            campaign.apply(FaultStep(0, "crash", {"node": "node-99"}, orderly=True))
        assert campaign.hub.faults == ARMED


@dataclass
class _Report(CampaignReport):
    events: set
    hosting: dict
    replayed: int
    note: str = ""

    DIGEST = ("scenario", "seed", "events", "hosting", "violations", "replayed")
    SUMMARY = ("events={events}", "replayed={replayed}/{seed}")


def _report(**changes) -> _Report:
    fields = dict(
        scenario="s",
        seed=7,
        violations=[Violation("inv", "detail")],
        events={("proximity", (1, 2)), ("collision", (3, 4))},
        hosting={1: ("node-00", 1.0), 2: ("node-01", 2.0)},
        replayed=5,
    )
    return _Report(**{**fields, **changes})


def test_digest_is_the_legacy_repr_tuple():
    """Byte for byte what the five hand-written fingerprints hashed: sets
    sorted, dicts as sorted items, violations as strings."""
    report = _report()
    legacy = repr(
        ("s", 7, sorted(report.events), sorted(report.hosting.items()), ["[inv] detail"], 5)
    )
    assert report.fingerprint() == hashlib.sha256(legacy.encode()).hexdigest()


def test_digest_ignores_insertion_order():
    reordered = _report(
        events={("collision", (3, 4)), ("proximity", (1, 2))},
        hosting={2: ("node-01", 2.0), 1: ("node-00", 1.0)},
    )
    assert reordered.fingerprint() == _report().fingerprint()


DECLARED_FIELD_CHANGES = [
    {"scenario": "t"},
    {"seed": 8},
    {"violations": []},
    {"events": {("proximity", (1, 2))}},
    {"hosting": {1: ("node-01", 1.0), 2: ("node-01", 2.0)}},
    {"replayed": 6},
]


@pytest.mark.parametrize("change", DECLARED_FIELD_CHANGES, ids=lambda change: next(iter(change)))
def test_digest_changes_with_every_declared_field(change):
    assert _report(**change).fingerprint() != _report().fingerprint()


def test_every_declared_field_is_covered_above():
    declared = {f.name for f in dataclasses.fields(_Report)} - {"note"}
    assert declared == set(_Report.DIGEST) == {k for c in DECLARED_FIELD_CHANGES for k in c}


def test_undeclared_field_stays_out_of_the_digest_and_summary():
    report = _report(note="x")
    assert report.fingerprint() == _report().fingerprint()
    assert not report.ok
    assert report.summary() == (
        f"scenario=s seed=7 1 violation(s) events=2 replayed=5/7 "
        f"fingerprint={report.fingerprint()[:16]}\n  [inv] detail"
    )
    assert _report(violations=[]).summary().startswith("scenario=s seed=7 OK events=2 ")


TABLE = ShardTable(epoch=1, nodes=("node-00", "node-01", "node-02"), num_shards=64)


def test_picker_gives_up_on_a_node_that_owns_nothing():
    """``node-07`` owns no shard of a 3-node table; the old rebalance
    picker checked its give-up bound only after a successful pick and
    spun forever here."""
    with pytest.raises(RuntimeError, match="node-07"):
        mmsis_owned_by(TABLE, "node-07", count=2, base=300_000_000)


def test_picker_honours_the_per_shard_cap():
    def shards_of(mmsis):
        return [shard_for_key("vessel", m, TABLE.num_shards) for m in mmsis]

    capped = shards_of(mmsis_owned_by(TABLE, "node-01", 10, 300_000_000, per_shard_cap=1))
    assert all(TABLE.owner_of(s) == "node-01" for s in capped)
    assert len(set(capped)) == 10
    uncapped = shards_of(mmsis_owned_by(TABLE, "node-01", 10, 300_000_000))
    assert len(set(uncapped)) < 10


def test_fingerprint_file_covers_exactly_the_tier1_runs(golden_fingerprints):
    """``fingerprints.json`` holds one digest per campaign run tier-1 makes:
    a renamed scenario or a new leg must come with a regenerated file, or
    its runs would silently go unchecked."""
    from tests.sim.regen_fingerprints import tier1_runs

    assert sorted(key for key, _ in tier1_runs()) == sorted(golden_fingerprints)
