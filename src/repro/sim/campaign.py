"""How a fault campaign is declared, run and digested — the one place that knows.

Every cluster campaign is the same experiment with different data: form a
healthy simulated cluster, arm link faults, publish the workload chunk by
chunk while a *script* of :class:`FaultStep` actions fires at chunk
boundaries, heal, check the standard invariants plus the campaign's named
checks, and digest every observable into a fingerprint that reproduces
from the seed. A :class:`Scenario` is that data; :func:`run` is the
experiment. What a campaign adds is a :class:`Fleet` (extra vessels built
from the node set), script steps and named checks — the crash/recovery,
rebalancing and voyage campaigns keep theirs in
:mod:`~repro.sim.recovery`, :mod:`~repro.sim.rebalance` and
:mod:`~repro.sim.voyage`. :func:`fault_free_oracle` is what every
campaign's parity checks compare against: a standalone :class:`Platform`
fed the same chunks. :class:`CampaignReport` is the digest, shared by the
single-node warehouse campaign too.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable

from repro.ais.message import AISMessage
from repro.cluster import ClusterConfig, VirtualClock, shard_for_key
from repro.cluster.sharding import ShardTable
from repro.events.voyage import VOYAGE_EVENT_KINDS
from repro.platform.config import PlatformConfig
from repro.platform.distributed import LoopbackCluster
from repro.platform.pipeline import Platform
from repro.sim.faults import FaultSpec
from repro.sim.invariants import (
    Violation,
    check_event_parity,
    check_exclusive_ownership,
    check_no_acked_loss,
    check_no_downed_delivery,
    check_shard_convergence,
    collect_events,
    collect_final_plans,
    vessel_hosts,
)
from repro.sim.transport import SimHub
from repro.sim.workload import generate_workload

#: Wall-clock seconds ticked between workload chunks (keeps heartbeats
#: flowing; well under the 2 s suspicion threshold per chunk).
TICK_PER_CHUNK_S = 1.0
#: Failure-detector DOWN threshold for the simulated cluster. Wider than
#: the production default (5 s): a partition window plus the worst-case
#: injected delay plus heartbeat phase must stay below it, or a *live*
#: node gets a terminal false-DOWN — which legitimately diverges from the
#: fault-free oracle (DOWN is per-incarnation final and only an explicit
#: re-join reconciles it).
DOWN_AFTER_S = 8.0


@dataclass(frozen=True)
class FaultStep:
    """One scripted action applied after chunk ``after_chunk`` is
    processed; steps sharing a boundary fire in script order.

    Actions (:data:`ACTIONS`): ``partition(a, b)``, ``heal``,
    ``crash(node)``, ``restart(node)``, ``tick(dt_s)``, ``resolve`` (tick
    long enough for the failure detector to settle on every dead node),
    ``set_faults(faults)``, ``quiesce``, ``checkpoint``, ``recover(node)``,
    ``add_node``, ``drain(node)``, ``sample_ownership``. An ``orderly``
    step runs with link faults paused and the delay heap drained before
    and after it — an operator acting on a calm cluster rather than racing
    in-flight frames.
    """

    after_chunk: int
    action: str
    kwargs: dict = field(default_factory=dict)
    orderly: bool = False


@dataclass(frozen=True)
class Fleet:
    """What a campaign adds to the standard workload, built from the
    formed cluster's shard table so its vessels land where the campaign
    aims them. The oracle is fed the same chunks, twins and closing fixes
    as the cluster."""

    #: Extra fixes per workload chunk.
    chunks: tuple[tuple[AISMessage, ...], ...] = ()
    #: The fleet's vessels; the report records where each ends up hosted.
    mmsis: tuple[int, ...] = ()
    #: Voyage twins assigned before the first chunk.
    twins: tuple = ()
    #: Fixes published after the heal coda.
    closing: tuple[AISMessage, ...] = ()
    #: :class:`PlatformConfig` keywords the fleet needs on every node.
    platform: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """A named fault campaign over the standard workload."""

    name: str
    #: Link faults armed once the cluster has formed.
    faults: FaultSpec = FaultSpec()
    script: tuple[FaultStep, ...] = ()
    num_nodes: int = 3
    steps: int = 10
    #: ``fleet(table, seed, steps)``: the campaign's extra vessels.
    fleet: Callable[[ShardTable, int, int], Fleet] | None = None
    #: :class:`ClusterConfig` keywords.
    cluster: dict = field(default_factory=dict)
    #: End with a full AIS replay from offset 0. False leaves the script's
    #: ``recover`` suffix replay as the only recovery under test.
    full_replay: bool = True
    #: Named checks: each reads the finished :class:`ClusterCampaign`,
    #: records what it measured in ``campaign.observed`` and returns its
    #: violations.
    checks: tuple[Callable[[ClusterCampaign], list[Violation]], ...] = ()
    #: The observables that enter the fingerprint, in order.
    digest: tuple[str, ...] = (
        "scenario", "seed", "events", "final_hosting", "counters", "violations", "replayed"
    )
    #: ``label={observable}`` pieces of the summary line.
    headline: tuple[str, ...] = ()


class SimCluster(LoopbackCluster):
    """A :class:`LoopbackCluster` wired over a :class:`SimHub`, with
    crash/restart choreography that keeps hub and membership in step."""

    def __init__(self, sim_hub: SimHub, **kwargs) -> None:
        super().__init__(hub=sim_hub, clock=sim_hub.clock, **kwargs)

    def crash(self, node_id: str) -> str:
        """Abrupt node death: in-flight frames to it are lost and any
        later delivery to it is a harness violation."""
        index = next((i for i, n in enumerate(self.nodes) if n.node_id == node_id), None)
        if index is None:
            raise ValueError(f"no running node {node_id!r}")
        # ``kill`` refuses the seed: let it validate before the hub marks
        # the node crashed.
        self.kill(index)
        self.hub.crash(node_id)
        return node_id

    def restart(self, node_id: str):
        self.hub.revive(node_id)
        return super().restart(node_id)

    def quiesce(self, max_steps: int = 10_000) -> None:
        """Settle, then advance virtual time to each pending delivery
        deadline until no delayed frames remain anywhere."""
        self.settle()
        for _ in range(max_steps):
            deadline = self.hub.next_deadline()
            if deadline is None:
                return
            self.tick(max(deadline - self.clock.now, 1e-6))
        raise RuntimeError("delay heap did not drain (livelock?)")


def _canonical(value):
    """Order-free containers in one canonical form, so a digest never
    depends on set or dict insertion order."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, dict):
        return sorted(value.items())
    if isinstance(value, list):
        return [str(v) if isinstance(v, Violation) else v for v in value]
    return value


@dataclass
class CampaignReport:
    """Everything a failing seed needs to be diagnosed and replayed.

    ``observed`` holds what the run measured, by name, readable as
    attributes (``report.events``). ``digest`` orders the names that enter
    :meth:`fingerprint`; ``headline`` holds the ``label={name}`` pieces of
    the summary line (containers format as their size).
    """

    scenario: str
    seed: int
    violations: list[Violation]
    observed: dict = field(default_factory=dict)
    digest: tuple[str, ...] = ()
    headline: tuple[str, ...] = ()

    def __getattr__(self, name: str):
        try:
            return self.__dict__["observed"][name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def ok(self) -> bool:
        return not self.violations

    def fingerprint(self) -> str:
        """A digest of every observable outcome of the run. Two runs of
        the same scenario and seed must produce identical fingerprints —
        the harness's own determinism guarantee."""
        canonical = repr(tuple(_canonical(getattr(self, name)) for name in self.digest))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def field_fingerprints(self) -> dict[str, str]:
        """One digest per :attr:`digest` name, so a moved fingerprint
        names the observables that moved it."""
        return {
            name: hashlib.sha256(repr(_canonical(getattr(self, name))).encode()).hexdigest()
            for name in self.digest
        }

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        values = {"scenario": self.scenario, "seed": self.seed, **self.observed}
        shown = {
            name: len(value) if isinstance(value, (set, dict, list)) else value
            for name, value in values.items()
        }
        head = [
            f"scenario={self.scenario}",
            f"seed={self.seed}",
            status,
            *(piece.format(**shown) for piece in self.headline),
            f"fingerprint={self.fingerprint()[:16]}",
        ]
        return "\n".join([" ".join(head), *(f"  {v}" for v in self.violations)])


class ClusterCampaign:
    """One simulated cluster run of a scenario under a seed, and the state
    the script's actions and the campaign's checks share.

    The campaign reads the scenario's ``faults``, ``script``,
    ``num_nodes`` and ``cluster``; ``platform`` holds extra
    :class:`PlatformConfig` keywords. Use as a context manager: the
    cluster is shut down on exit.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int,
        platform: dict | None = None,
        workdir: str | None = None,
    ) -> None:
        self.scenario = scenario
        #: Checkpoints go through ``checkpoint.pkl`` here when set.
        self.workdir = workdir
        # Faults arm only after the cluster has formed (:meth:`arm`): a
        # run begins from a healthy cluster and injects faults into it — a
        # deployment that never formed models an operator error, not a
        # runtime fault.
        self.hub = SimHub(rng=random.Random(seed), clock=VirtualClock(), faults=FaultSpec())
        # Telemetry rides along on every sim run: all timestamps come
        # from the virtual clock, so the snapshot is deterministic per
        # seed (see tests/sim/test_telemetry_determinism.py).
        self.cluster = SimCluster(
            self.hub,
            num_nodes=scenario.num_nodes,
            config=PlatformConfig(record_telemetry=True, trace_sample_every=16, **(platform or {})),
            cluster_config=ClusterConfig(down_after_s=DOWN_AFTER_S, **scenario.cluster),
        )
        #: Two DOWN windows: the leader detects a dead node first, peers
        #: time it out after the leader stops re-asserting it.
        self.resolve_s = 2.0 * DOWN_AFTER_S + 2.0
        #: The last chunk published (its boundary's steps are firing).
        self.chunk = -1
        #: Violations sampled while the script ran.
        self.violations: list[Violation] = []
        self.latest_checkpoint = None
        self.checkpoints_taken = 0
        #: Records the last ``recover`` step's suffix replay re-dispatched.
        self.suffix_replayed = 0
        #: Records the heal coda's full replay re-dispatched.
        self.replayed = 0
        #: Set by :func:`run` for the checks: what the run fed and measured.
        self.workload = self.fleet = self.oracle = None
        self.observed: dict = {}

    def __enter__(self) -> "ClusterCampaign":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cluster.shutdown()

    # -- actions that need the campaign's state -------------------------------------

    def _checkpoint(self) -> None:
        # Ingest, serve pending replays and flush the writers first: the
        # capture is an anchor only at a barrier.
        self.cluster.process_available()
        self.latest_checkpoint = self.cluster.checkpoint(directory=self.workdir)
        self.checkpoints_taken += 1

    def _recover(self, node: str) -> None:
        source = self.workdir if self.workdir is not None else self.latest_checkpoint
        _, self.suffix_replayed = self.cluster.recover(node, source)

    def _sample_ownership(self) -> None:
        # Quiesce so the sample sees a genuine boundary (the delay heap
        # drained), then assert nobody is double-hosted even with
        # migrations mid-flight between chunks.
        self.cluster.quiesce()
        self.violations += check_exclusive_ownership(self.cluster, context=f"chunk {self.chunk}")

    def apply(self, step: FaultStep) -> None:
        action = ACTIONS.get(step.action)
        if action is None:
            raise ValueError(f"unknown fault action {step.action!r}")
        if not step.orderly:
            action(self, **step.kwargs)
            return
        # In-flight frames are never part of an orderly action; pausing
        # injection makes sure none appear while it runs.
        armed = self.hub.faults
        self.hub.faults = FaultSpec()
        try:
            self.cluster.quiesce()
            action(self, **step.kwargs)
            self.cluster.quiesce()
        finally:
            self.hub.faults = armed

    # -- the run -----------------------------------------------------------------

    def arm(self) -> None:
        self.hub.faults = self.scenario.faults

    def drive(self, chunks) -> None:
        """Publish ``chunks`` one by one, numbering on from the last chunk
        driven, pumping and ticking after each; at each boundary fire the
        scenario's script steps for it."""
        for chunk in chunks:
            self.chunk += 1
            self.cluster.seed.publish_messages(chunk)
            self.cluster.process_available()
            self.cluster.tick(TICK_PER_CHUNK_S)
            for step in self.scenario.script:
                if step.after_chunk == self.chunk:
                    self.apply(step)

    def stop_faults(self, wait_s: float = 0.0) -> None:
        """Stop injecting, heal every link, let ``wait_s`` pass and drain
        every late frame and writer so the invariants see a still
        cluster."""
        self.hub.faults = FaultSpec()
        self.hub.heal()
        self.cluster.tick(wait_s)
        self.cluster.quiesce()
        self.cluster.process_available()

    def heal_and_replay(self) -> None:
        """The heal coda: stop the faults, give the failure detector time
        to resolve every dead node, then the strongest recovery the
        platform offers — a full in-order AIS replay from offset 0 through
        the (now healthy) sharded routing."""
        self.stop_faults(self.resolve_s)
        self.replayed = self.cluster.seed.replay_from_start()
        self.cluster.settle()
        self.cluster.quiesce()
        self.cluster.process_available()

    def standard_violations(
        self, events: set, oracle_events: set, final_t: dict | None = None
    ) -> list[Violation]:
        """Shard convergence, exclusive ownership with every key on its
        owner, no acknowledged position lost (when the run ended in a full
        replay: pass ``final_t``), event parity with the fault-free oracle,
        no delivery to a downed node."""
        violations = check_shard_convergence(self.cluster)
        violations += check_exclusive_ownership(self.cluster, context="final")
        if final_t is not None:
            violations += check_no_acked_loss(self.cluster, final_t)
        violations += check_event_parity(events, oracle_events)
        violations += check_no_downed_delivery(self.hub)
        return violations

    def counters(self) -> dict:
        counters = dict(self.hub.fault_counters())
        counters["epoch"] = self.cluster.nodes[0].table.epoch
        counters["live_nodes"] = len(self.cluster.nodes)
        return counters


#: The script's verbs: each takes the campaign and the step's keywords.
ACTIONS: dict[str, Callable[..., object]] = {
    "partition": lambda c, **kw: c.hub.partition(**kw),
    "heal": lambda c, **kw: c.hub.heal(**kw),
    "crash": lambda c, node: c.cluster.crash(node),
    "restart": lambda c, node: c.cluster.restart(node),
    "tick": lambda c, dt_s: c.cluster.tick(dt_s),
    "resolve": lambda c: c.cluster.tick(c.resolve_s),
    "set_faults": lambda c, faults: setattr(c.hub, "faults", faults),
    "quiesce": lambda c: c.cluster.quiesce(),
    "checkpoint": ClusterCampaign._checkpoint,
    "recover": ClusterCampaign._recover,
    "add_node": lambda c: c.cluster.add_node(),
    "drain": lambda c, node: c.cluster.drain(node),
    "sample_ownership": ClusterCampaign._sample_ownership,
}


def check_script(scenario: Scenario) -> None:
    """Refuse a script that cannot run as written: every step's chunk lies
    in ``[0, steps)`` and its action is in :data:`ACTIONS`; a ``recover``
    fires after a ``checkpoint``; a scenario that recovers drops no frames
    (only the checkpoint suffix is replayed, so a drop outside it is
    unrecoverable by design)."""
    checkpointed = False
    for step in sorted(scenario.script, key=lambda step: step.after_chunk):
        if not 0 <= step.after_chunk < scenario.steps:
            raise ValueError(
                f"{step.action} after chunk {step.after_chunk}: outside the "
                f"scenario's {scenario.steps} chunks"
            )
        if step.action not in ACTIONS:
            raise ValueError(f"unknown fault action {step.action!r}")
        checkpointed |= step.action == "checkpoint"
        if step.action == "recover" and not checkpointed:
            raise ValueError("a recover step must fire after a checkpoint step")
    if any(step.action == "recover" for step in scenario.script):
        armed = [step.kwargs["faults"] for step in scenario.script if step.action == "set_faults"]
        if any(faults.drop_p > 0 for faults in (scenario.faults, *armed)):
            raise ValueError(
                "a scenario that recovers must not drop frames: only the "
                "checkpoint suffix is replayed, so a drop outside it is "
                "unrecoverable by design"
            )


def run(scenario: Scenario, seed: int, workdir: str | None = None) -> CampaignReport:
    """Execute ``scenario`` under ``seed`` and check the standard
    invariants plus the scenario's checks; pass ``workdir`` to route
    checkpoints through disk (write at capture, load at recovery)."""
    check_script(scenario)
    workload = generate_workload(seed, steps=scenario.steps)
    nodes = tuple(f"node-{i:02d}" for i in range(scenario.num_nodes))
    num_shards = ClusterConfig(**scenario.cluster).num_shards
    table = ShardTable(epoch=1, nodes=nodes, num_shards=num_shards)
    fleet = scenario.fleet(table, seed, scenario.steps) if scenario.fleet else Fleet()
    chunks = [w + f for w, f in zip_longest(workload.messages_by_step, fleet.chunks, fillvalue=())]
    oracle = fault_free_oracle(
        seed, [*chunks, fleet.closing] if fleet.closing else chunks, fleet.platform, fleet.twins
    )
    with ClusterCampaign(scenario, seed, platform=fleet.platform, workdir=workdir) as campaign:
        cluster = campaign.cluster
        for twin in fleet.twins:
            cluster.assign_voyage(twin.mmsi, twin.waypoints, twin.deadline_t)
        campaign.arm()
        campaign.drive(chunks)
        if scenario.full_replay:
            campaign.heal_and_replay()
        else:
            # The suffix replay *is* the recovery under test: just let
            # every late frame land before the invariants look.
            campaign.stop_faults()
        if fleet.closing:
            cluster.seed.publish_messages(fleet.closing)
            cluster.process_available()
            cluster.quiesce()
            cluster.process_available()

        events = collect_events(cluster)
        final_t = workload.final_t if scenario.full_replay else None
        violations = campaign.violations + campaign.standard_violations(
            events, oracle.events, final_t
        )
        campaign.workload, campaign.fleet, campaign.oracle = workload, fleet, oracle
        campaign.observed = {
            "events": events,
            "reference_events": oracle.events,
            "counters": campaign.counters(),
            "replayed": campaign.replayed,
            "suffix_replayed": campaign.suffix_replayed,
            "final_hosting": {
                mmsi: (node_id, actor.last_message.t)
                for mmsi in workload.final_t
                for node_id, actor in vessel_hosts(cluster, mmsi)
                if actor is not None and actor.last_message is not None
            },
            "fleet_hosting": {
                mmsi: hosts[0][0] for mmsi in fleet.mmsis if (hosts := vessel_hosts(cluster, mmsi))
            },
        }
        for check in scenario.checks:
            violations += check(campaign)
        # In no digest: its own determinism is asserted by
        # tests/sim/test_telemetry_determinism.py.
        campaign.observed["telemetry"] = cluster.telemetry_snapshot()
        return CampaignReport(
            scenario=scenario.name,
            seed=seed,
            violations=violations,
            observed=campaign.observed,
            digest=scenario.digest,
            headline=scenario.headline,
        )


@dataclass(frozen=True)
class Oracle:
    """What the fault-free run wrote: the (kind, pair) encounter set, the
    (kind, mmsi) voyage event set and each voyage twin's final plan
    fingerprint."""

    events: set
    voyage_events: set
    plans: dict[int, str | None]


#: Oracles by what they were fed, so every scenario over one workload
#: shares its oracle.
_ORACLE_CACHE: dict[tuple, Oracle] = {}


def fault_free_oracle(seed: int, chunks, config: dict | None = None, twins=()) -> Oracle:
    """The reference a campaign's parity checks compare against: one
    standalone :class:`Platform` (``config`` its :class:`PlatformConfig`
    keywords) fed exactly what the faulted run publishes — the voyage
    ``twins`` assigned, then each chunk published and processed in turn.
    No cluster, so no cluster bug can hide on both sides. An oracle that
    lacks either encounter kind, or a twin's voyage event kind, is
    refused: parity against it would be vacuous."""
    config = config or {}
    key = (tuple(chunks), tuple(twins), tuple(sorted(config.items())))
    oracle = _ORACLE_CACHE.get(key)
    if oracle is not None:
        return oracle
    platform = Platform(config=PlatformConfig(**config))
    try:
        for twin in twins:
            platform.assign_voyage(twin.mmsi, twin.waypoints, twin.deadline_t)
        for chunk in chunks:
            platform.publish_messages(chunk)
            platform.process_available()
        oracle = Oracle(
            events=collect_events(platform),
            voyage_events=collect_events(platform, VOYAGE_EVENT_KINDS, lambda p: p.mmsi),
            plans=collect_final_plans(platform, twins),
        )
    finally:
        platform.shutdown()
    if not {"proximity", "collision"} <= {kind for kind, _ in oracle.events}:
        raise RuntimeError(
            f"degenerate workload for seed {seed}: fault-free run "
            f"produced {sorted(oracle.events)} — parity would be vacuous"
        )
    for twin in twins:
        if (twin.kind, twin.mmsi) not in oracle.voyage_events:
            raise RuntimeError(
                f"degenerate voyage workload for seed {seed}: fault-free run never emitted "
                f"{twin.kind} for the {twin.role} twin ({sorted(oracle.voyage_events)}) — "
                f"parity would be vacuous"
            )
    _ORACLE_CACHE[key] = oracle
    return oracle


def mmsis_owned_by(
    table, node: str, count: int, base: int, per_shard_cap: int | None = None
) -> list[int]:
    """The first ``count`` mmsis above ``base`` whose vessel shards
    ``table`` assigns to ``node``, at most ``per_shard_cap`` per shard.

    Pure hashing against the settled table — no RNG, so a campaign's
    extra fleet is a function of (cluster shape, scenario) alone.
    """
    picked: list[int] = []
    per_shard: Counter[int] = Counter()
    for mmsi in range(base + 1, base + 100_001):
        shard = shard_for_key("vessel", mmsi, table.num_shards)
        if table.owner_of(shard) != node:
            continue
        if per_shard_cap is not None and per_shard[shard] >= per_shard_cap:
            continue
        per_shard[shard] += 1
        picked.append(mmsi)
        if len(picked) == count:
            return picked
    raise RuntimeError(f"could not find {count} mmsis owned by {node!r}")
