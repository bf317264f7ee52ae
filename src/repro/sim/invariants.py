"""The five standard invariant checkers, the recovery campaign's
single-hosting check, and the observers they share.

Each checker returns a list of :class:`Violation` (empty = invariant
holds). They are pure observers: :func:`~repro.sim.campaign.run` performs
the heal/replay recovery sequence *before* calling them, so a violation
here means the cluster genuinely failed to converge — not that it was
still mid-recovery. The observers (:func:`vessel_hosts`,
:func:`collect_events`, :func:`collect_final_plans`) read a cluster or a
standalone platform alike, so the fault-free oracle is read the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

EVENT_KINDS = ("proximity", "collision")


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough detail to debug from the log."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


def check_shard_convergence(cluster) -> list[Violation]:
    """(a) Every live node holds the identical, internally sound shard
    table at the final epoch, and owners are all live nodes."""
    violations = []
    live = sorted(n.node_id for n in cluster.nodes)
    tables = [(n.node_id, n.table) for n in cluster.nodes]
    epochs = {t.epoch for _, t in tables}
    if len(epochs) != 1:
        violations.append(
            Violation(
                "shard-convergence",
                "epoch disagreement: " + ", ".join(f"{nid}={t.epoch}" for nid, t in tables),
            )
        )
    reference_id, reference = tables[0]
    for nid, table in tables[1:]:
        if table.assignment != reference.assignment:
            diff = [
                s
                for s in range(table.num_shards)
                if table.assignment.get(s) != reference.assignment.get(s)
            ]
            violations.append(
                Violation(
                    "shard-convergence",
                    f"{nid} assigns shards {diff[:8]}{'...' if len(diff) > 8 else ''} "
                    f"differently from {reference_id}",
                )
            )
    for nid, table in tables:
        for problem in table.problems():
            violations.append(Violation("shard-convergence", f"{nid}: {problem}"))
        foreign = sorted({o for o in table.assignment.values() if o not in live})
        if foreign:
            violations.append(
                Violation("shard-convergence", f"{nid} assigns shards to non-live nodes {foreign}")
            )
    for node in cluster.nodes:
        seen = sorted(node.membership.alive_ids())
        if seen != live:
            violations.append(
                Violation(
                    "shard-convergence", f"{node.node_id} believes alive={seen}, actual={live}"
                )
            )
    return violations


def _platforms(target) -> list:
    """The live platforms of a cluster, or a standalone platform alone."""
    return getattr(target, "platforms", [target])


def vessel_hosts(cluster, mmsi: int) -> list[tuple[str, object]]:
    """``(node id, vessel actor)`` for every live node whose vessel
    router knows ``mmsi``, in node order (the actor is None if the router
    knows the key but no actor cell exists). A standalone platform is the
    one node ``"local"``."""
    hosts = []
    for platform in _platforms(cluster):
        if mmsi in platform.wiring.vessel_router:
            cell = platform.system._cells.get(f"vessel-{mmsi}")
            node_id = platform.node.node_id if platform.node is not None else "local"
            hosts.append((node_id, cell.actor if cell is not None else None))
    return hosts


def _unless_sole_host(mmsi: int, hosts: list, invariant: str) -> list[Violation]:
    if len(hosts) == 1:
        return []
    where = [node_id for node_id, _ in hosts] or "nowhere"
    return [Violation(invariant, f"vessel {mmsi} hosted on {where} (want exactly one node)")]


def check_single_hosting(cluster, mmsis) -> list[Violation]:
    """Every published vessel is hosted by exactly one live node — a bad
    state restore would double-host it or leave it nowhere."""
    return [
        v
        for mmsi in sorted(mmsis)
        for v in _unless_sole_host(mmsi, vessel_hosts(cluster, mmsi), "single-hosting")
    ]


def check_no_acked_loss(cluster, final_t: dict[int, float]) -> list[Violation]:
    """(b) After heal + full replay, every published vessel is hosted on
    exactly one live node and carries its newest acknowledged position."""
    violations = []
    for mmsi, expected_t in sorted(final_t.items()):
        hosts = vessel_hosts(cluster, mmsi)
        violations += _unless_sole_host(mmsi, hosts, "no-acked-loss")
        if len(hosts) != 1:
            continue
        node_id, actor = hosts[0]
        last = actor.last_message if actor is not None else None
        if last is None or last.t != expected_t:
            got = "nothing" if last is None else f"t={last.t}"
            violations.append(
                Violation(
                    "no-acked-loss",
                    f"vessel {mmsi} on {node_id} holds {got}, "
                    f"newest acknowledged fix is t={expected_t}",
                )
            )
    return violations


def collect_events(cluster, kinds=EVENT_KINDS, subject=lambda payload: tuple(payload.pair)) -> set:
    """The cluster-wide (kind, subject) event set, unioned across every
    live node's KV store (cross-node duplicates collapse by construction;
    by default the subject is the encounter's vessel pair)."""
    events = set()
    for platform in _platforms(cluster):
        for kind in kinds:
            for payload in platform.kvstore.lrange(f"events:{kind}", 0, -1):
                events.add((kind, subject(payload)))
    return events


def collect_final_plans(cluster, fleet) -> dict[int, str | None]:
    """mmsi -> fingerprint of the plan each voyage twin of ``fleet``
    holds (None: twin unhosted or planless)."""
    plans: dict[int, str | None] = {}
    for twin in fleet:
        hosts = vessel_hosts(cluster, twin.mmsi)
        actor = hosts[0][1] if hosts else None
        plans[twin.mmsi] = (
            actor.voyage_plan.fingerprint()
            if actor is not None and actor.voyage_plan is not None
            else None
        )
    return plans


def check_event_parity(
    events: set, reference_events: set, invariant: str = "event-parity", subject: str = "pair"
) -> list[Violation]:
    """(c) The faulty run detected exactly the (kind, subject) events the
    fault-free oracle did — none lost, none fabricated."""
    violations = []
    for kind, key in sorted(reference_events - events):
        violations.append(Violation(invariant, f"missing {kind} event for {subject} {key}"))
    for kind, key in sorted(events - reference_events):
        violations.append(Violation(invariant, f"spurious {kind} event for {subject} {key}"))
    return violations


def check_no_downed_delivery(hub) -> list[Violation]:
    """(d) The hub never handed a frame to a crashed node."""
    return [Violation("no-downed-delivery", detail) for detail in hub.violations]


def check_exclusive_ownership(cluster, context: str = "final") -> list[Violation]:
    """(e) No entity key is hosted by two live nodes at once, and every
    node's shard table is internally sound (each shard exactly one owner).
    In the ``final`` context every hosted key also sits on its shard's
    owner: a key stranded on a non-owner (a shard rule applied in ``tell``
    but not in handoff) is a violation.

    Unlike the other checkers this one is safe to sample *during* a
    campaign, at quiescent chunk boundaries: live migration releases a
    key on the old owner before the new owner can spawn it, so even
    mid-rebalance a key is hosted at most once (briefly nowhere while its
    state transfer is in flight — that is allowed; double-hosting never
    is). ``context`` labels the sampling point in the violation text.
    """
    violations = []
    hosts: dict[tuple, list] = {}
    for platform in cluster.platforms:
        node_id = platform.node.node_id
        wiring = platform.wiring
        for entity, router in (
            ("vessel", wiring.vessel_router),
            ("cell", wiring.cell_router),
            ("collision", wiring.collision_router),
        ):
            for key in router.known_keys():
                hosts.setdefault((entity, key), []).append(node_id)
                owner = router.owner_of(key) if context == "final" else node_id
                if owner != node_id:
                    violations.append(
                        Violation(
                            "exclusive-ownership",
                            f"{context}: {entity} {key!r} hosted on {node_id}, owned by {owner}",
                        )
                    )
    for (entity, key), node_ids in sorted(hosts.items(), key=lambda kv: repr(kv[0])):
        if len(node_ids) > 1:
            violations.append(
                Violation(
                    "exclusive-ownership",
                    f"{context}: {entity} {key!r} hosted on {sorted(node_ids)} "
                    f"(want at most one node)",
                )
            )
    for node in cluster.nodes:
        for problem in node.table.problems():
            violations.append(
                Violation(
                    "exclusive-ownership", f"{context}: {node.node_id} table unsound: {problem}"
                )
            )
    return violations
