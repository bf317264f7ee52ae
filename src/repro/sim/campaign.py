"""How a fault campaign is run and digested — the one place that knows.

Every cluster campaign in this package (:mod:`~repro.sim.scenario`,
:mod:`~repro.sim.recovery`, :mod:`~repro.sim.rebalance`,
:mod:`~repro.sim.voyage`) is the same experiment with different data:
form a healthy simulated cluster, arm link faults, publish the workload
chunk by chunk while a *script* of :class:`FaultStep` actions fires at
chunk boundaries, heal, replay, check the standard invariants, and
digest every observable into a fingerprint that reproduces from the
seed. :class:`ClusterCampaign` is that experiment; a campaign module
keeps only its scenario dataclass (whose ``script`` says what happens
when), its extra workload and checks, and its report's field list.
:class:`CampaignReport` is the digest, shared by the warehouse campaign
too.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

from repro.cluster import ClusterConfig, VirtualClock, shard_for_key
from repro.platform.config import PlatformConfig
from repro.platform.distributed import LoopbackCluster
from repro.sim.faults import FaultSpec
from repro.sim.invariants import (
    Violation,
    check_event_parity,
    check_no_acked_loss,
    check_no_downed_delivery,
    check_shard_convergence,
)
from repro.sim.transport import SimHub


@dataclass(frozen=True)
class FaultStep:
    """One scripted action applied after chunk ``after_chunk`` is
    processed; steps sharing a boundary fire in script order.

    Actions: ``partition(a, b)``, ``heal``, ``crash(node)``,
    ``restart(node)``, ``tick(dt_s)``, ``resolve`` (tick long enough
    for the failure detector to settle on every dead node),
    ``set_faults(faults)``, ``quiesce``, ``checkpoint``,
    ``recover(node)``, ``add_node``, ``drain(node)``. An ``orderly`` step
    runs with link faults paused and the delay heap drained before and
    after it — an operator acting on a calm cluster rather than racing
    in-flight frames.
    """

    after_chunk: int
    action: str
    kwargs: dict = field(default_factory=dict)
    orderly: bool = False


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
        self.hub.crash(node_id)
        return self.kill(index)

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

    A concrete report declares its fields plus :attr:`DIGEST` — the
    ordered field names that enter :meth:`fingerprint` — and
    :attr:`SUMMARY`, the ``label={field}`` pieces of the summary line
    (containers format as their size).
    """

    scenario: str
    seed: int
    violations: list[Violation]

    DIGEST: ClassVar[tuple[str, ...]] = ()
    SUMMARY: ClassVar[tuple[str, ...]] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def fingerprint(self) -> str:
        """A digest of every observable outcome of the run. Two runs of
        the same scenario and seed must produce identical fingerprints —
        the harness's own determinism guarantee."""
        canonical = repr(tuple(_canonical(getattr(self, name)) for name in self.DIGEST))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        shown = {
            name: len(value) if isinstance(value, (set, dict, list)) else value
            for name, value in vars(self).items()
        }
        head = [
            f"scenario={self.scenario}",
            f"seed={self.seed}",
            status,
            *(piece.format(**shown) for piece in self.SUMMARY),
            f"fingerprint={self.fingerprint()[:16]}",
        ]
        return "\n".join([" ".join(head), *(f"  {v}" for v in self.violations)])


def drive_chunks(cluster, chunks, tick_s: float, at_boundary=None, first: int = 0) -> None:
    """Publish ``chunks`` one by one, pumping and ticking after each;
    ``at_boundary(k)`` runs once chunk ``k`` (numbered from ``first``)
    has been processed."""
    for k, chunk in enumerate(chunks, start=first):
        cluster.seed.publish_messages(chunk)
        cluster.process_available()
        cluster.tick(tick_s)
        if at_boundary is not None:
            at_boundary(k)


class ClusterCampaign:
    """One simulated cluster run of a scenario under a seed.

    ``scenario`` is any cluster scenario dataclass: the campaign reads
    its ``faults``, ``script``, ``num_nodes``, ``tick_per_chunk_s`` and
    ``down_after_s``. ``platform`` / ``cluster`` are extra
    :class:`PlatformConfig` / :class:`ClusterConfig` keywords. Use as a
    context manager: the cluster is shut down on exit.
    """

    def __init__(
        self,
        scenario,
        seed: int,
        platform: dict | None = None,
        cluster: dict | None = None,
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
            cluster_config=ClusterConfig(down_after_s=scenario.down_after_s, **(cluster or {})),
        )
        #: Two DOWN windows: the leader detects a dead node first, peers
        #: time it out after the leader stops re-asserting it.
        self.resolve_s = 2.0 * scenario.down_after_s + 2.0
        self.latest_checkpoint = None
        self.checkpoints_taken = 0
        #: Records the last ``recover`` step's suffix replay re-dispatched.
        self.suffix_replayed = 0
        #: Records the heal coda's full replay re-dispatched.
        self.replayed = 0
        hub, sim = self.hub, self.cluster
        self._actions = {
            "partition": hub.partition,
            "heal": hub.heal,
            "crash": lambda node: sim.crash(node),
            "restart": lambda node: sim.restart(node),
            "tick": sim.tick,
            "resolve": lambda: sim.tick(self.resolve_s),
            "set_faults": lambda faults: setattr(hub, "faults", faults),
            "quiesce": sim.quiesce,
            "checkpoint": self._checkpoint,
            "recover": self._recover,
            "add_node": sim.add_node,
            "drain": lambda node: sim.drain(node),
        }

    def __enter__(self) -> "ClusterCampaign":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cluster.shutdown()

    # -- the action table --------------------------------------------------------

    def _checkpoint(self) -> None:
        # Ingest, serve pending replays and flush the writers first: the
        # capture is an anchor only at a barrier.
        self.cluster.process_available()
        self.latest_checkpoint = self.cluster.checkpoint(directory=self.workdir)
        self.checkpoints_taken += 1

    def _recover(self, node: str) -> None:
        source = self.workdir if self.workdir is not None else self.latest_checkpoint
        _, self.suffix_replayed = self.cluster.recover(node, source)

    def apply(self, step: FaultStep) -> None:
        action = self._actions.get(step.action)
        if action is None:
            raise ValueError(f"unknown fault action {step.action!r}")
        if not step.orderly:
            action(**step.kwargs)
            return
        # In-flight frames are never part of an orderly action; pausing
        # injection makes sure none appear while it runs.
        armed = self.hub.faults
        self.hub.faults = FaultSpec()
        try:
            self.cluster.quiesce()
            action(**step.kwargs)
            self.cluster.quiesce()
        finally:
            self.hub.faults = armed

    # -- the run -----------------------------------------------------------------

    def arm(self) -> None:
        self.hub.faults = self.scenario.faults

    def drive(self, chunks, first: int = 0, at_boundary=None) -> None:
        """Publish ``chunks`` (numbered from ``first``); at each boundary
        fire the scenario's script steps for it, then ``at_boundary``."""
        script = self.scenario.script

        def boundary(k: int) -> None:
            for step in script:
                if step.after_chunk == k:
                    self.apply(step)
            if at_boundary is not None:
                at_boundary(k)

        drive_chunks(self.cluster, chunks, self.scenario.tick_per_chunk_s, boundary, first)

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
        """Shard convergence, no acknowledged position lost (when the run
        ended in a full replay: pass ``final_t``), event parity with the
        fault-free oracle, no delivery to a downed node."""
        violations = check_shard_convergence(self.cluster)
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


#: Fault-free oracle outcomes by key: an oracle depends only on the seed
#: and the workload shape, so every scenario over one seed shares it.
_ORACLE_CACHE: dict[tuple, object] = {}


def fault_free_oracle(key: tuple, seed: int, run, events=lambda outcome: outcome):
    """The cached outcome of ``run()`` — the fault-free run of ``seed``
    under ``key``'s workload shape; ``events(outcome)`` is its
    (kind, pair) event set. An oracle that lacks either event kind is
    refused: parity against it would be vacuous."""
    cached = _ORACLE_CACHE.get(key)
    if cached is None:
        cached = run()
        found = events(cached)
        if not {"proximity", "collision"} <= {kind for kind, _ in found}:
            raise RuntimeError(
                f"degenerate workload for seed {seed}: fault-free run "
                f"produced {sorted(found)} — parity would be vacuous"
            )
        _ORACLE_CACHE[key] = cached
    return cached


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
