"""Telemetry-driven live shard rebalancing.

The shard table previously moved only on membership events (join /
failure). This module closes ROADMAP item 1's control loop: every node
streams :class:`~repro.cluster.protocol.LoadReport` windows to the leader
on the heartbeat path, the leader's :class:`Rebalancer` turns the
accumulated per-shard message weights into a **minimal-move** migration
plan (:func:`plan_rebalance`), and executes it live by broadcasting a
shard table whose *overrides* pin the moved shards to their new owners —
the handoff machinery then freezes each migrating key, transfers its
exported actor state to the new owner
(:class:`~repro.cluster.protocol.ShardStateTransfer`), and the seed
replays only the in-flight stream suffix via ``Consumer.seek``
(CheetahGIS-style partition-aware scale-out, PAPERS.md).

Everything that decides is a pure function of the telemetry snapshot:
``plan_rebalance(table, weights, assignable)`` is deterministic, never
targets a draining or dead node, and moves the fewest shards that bring
the spread under its ``imbalance_ratio`` — properties the
hypothesis suite asserts directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.cluster.protocol import LoadReport, MigrationPlan, ShardTableUpdate

if TYPE_CHECKING:
    from repro.cluster.node import ClusterNode
    from repro.cluster.sharding import ShardTable


@dataclass(frozen=True)
class ShardMove:
    """One planned migration: ``shard`` leaves ``src`` for ``dst``."""

    shard: int
    src: str
    dst: str
    #: The shard's message weight in the planning window (why it moved).
    weight: int


def plan_rebalance(
    table: "ShardTable",
    shard_weights: Mapping[int, int],
    assignable: list[str] | tuple[str, ...],
    *,
    max_moves: int = 8,
    imbalance_ratio: float = 1.5,
    min_messages: int = 32,
) -> list[ShardMove]:
    """Compute a minimal-move migration plan for one telemetry window.

    Pure and deterministic: the same ``(table, weights, assignable)``
    always yields the same plan. Greedy peak-shaving — repeatedly move
    the heaviest shard that fits inside half the busiest/least-busy gap
    from the busiest to the least-busy node, so every move strictly
    shrinks the spread and no shard moves twice. Stops when the spread is
    within ``imbalance_ratio``, when ``max_moves`` is reached, or when no
    shard small enough to help remains.

    Only nodes in ``assignable`` (alive and not draining) participate;
    shards currently owned by non-assignable nodes are the coordinator's
    problem (a membership-driven table recompute), not the planner's.
    """
    nodes = sorted(set(assignable) & set(table.nodes))
    if len(nodes) < 2:
        return []
    eligible = set(nodes)
    weights = {s: int(w) for s, w in shard_weights.items() if 0 <= s < table.num_shards and w > 0}
    if sum(weights.values()) < min_messages:
        return []
    assignment = dict(table.assignment)
    load = {n: 0 for n in nodes}
    for shard, owner in assignment.items():
        if owner in eligible:
            load[owner] += weights.get(shard, 0)

    moves: list[ShardMove] = []
    moved: set[int] = set()
    for _ in range(max_moves):
        donor = min(nodes, key=lambda n: (-load[n], n))
        recipient = min(nodes, key=lambda n: (load[n], n))
        if donor == recipient:
            break
        if load[donor] <= imbalance_ratio * max(load[recipient], 1):
            break
        gap = load[donor] - load[recipient]
        best: tuple[int, int] | None = None  # (-weight, shard)
        for shard, owner in assignment.items():
            if owner != donor or shard in moved:
                continue
            weight = weights.get(shard, 0)
            # Only moves within half the gap shrink the spread; a heavier
            # shard would just swap which node is overloaded (oscillation).
            if weight <= 0 or 2 * weight > gap:
                continue
            key = (-weight, shard)
            if best is None or key < best:
                best = key
        if best is None:
            break
        weight, shard = -best[0], best[1]
        moves.append(ShardMove(shard=shard, src=donor, dst=recipient, weight=weight))
        moved.add(shard)
        assignment[shard] = recipient
        load[donor] -= weight
        load[recipient] += weight
    return moves


@dataclass
class _NodeWindow:
    """Leader-side accumulation of one node's reports since the last
    evaluation (deltas summed, gauges latest-wins)."""

    node_id: str
    reports: int = 0
    busy_ms: float = 0.0
    mailbox_depth: int = 0
    consumer_lag: int = 0
    entities: int = 0
    shard_messages: dict[int, int] = field(default_factory=dict)


class Rebalancer:
    """The leader's half of the control loop.

    :meth:`observe` accumulates :class:`LoadReport` windows;
    :meth:`maybe_rebalance` runs on the node tick at
    ``rebalance_interval_s``, and — when every assignable node has
    reported since the last evaluation — plans, stamps a new table epoch
    whose overrides encode the moves, and broadcasts
    :class:`MigrationPlan` + :class:`ShardTableUpdate`. Handoff and state
    transfer then happen exactly as for a membership-driven table change.

    Constructed on every node (reports must land somewhere before an
    election settles) but only the active coordinator plans.
    """

    def __init__(self, node: "ClusterNode") -> None:
        self._node = node
        self._window: dict[str, _NodeWindow] = {}
        self._last_eval_at: float | None = None
        self.reports_received = 0
        self.plans_total = 0
        self.moves_total = 0
        self.last_plan_epoch = 0

    # -- telemetry intake ------------------------------------------------------

    def observe(self, report: LoadReport) -> None:
        window = self._window.get(report.node_id)
        if window is None:
            window = self._window[report.node_id] = _NodeWindow(report.node_id)
        window.reports += 1
        window.busy_ms += report.busy_ms
        window.mailbox_depth = report.mailbox_depth
        window.consumer_lag = report.consumer_lag
        window.entities = report.entities
        for shard, count in report.shard_messages:
            window.shard_messages[shard] = window.shard_messages.get(shard, 0) + count
        self.reports_received += 1

    # -- the control loop ------------------------------------------------------

    def maybe_rebalance(self, now: float) -> bool:
        """Evaluate one window; returns True if a plan was executed."""
        config = self._node.config
        if config.rebalance_interval_s <= 0 or config.load_report_interval_s <= 0:
            return False
        if not self._node.coordinator.is_active:
            # Lost leadership: drop the stale window so a later election
            # does not plan from another era's weights.
            self._window.clear()
            self._last_eval_at = None
            return False
        if self._last_eval_at is None:
            self._last_eval_at = now
            return False
        interval = now - self._last_eval_at
        if interval < config.rebalance_interval_s:
            return False
        assignable = self._node.membership.assignable_ids()
        if any(
            self._window.get(node_id) is None or self._window[node_id].reports == 0
            for node_id in assignable
        ):
            # A node has not reported this window yet — keep accumulating
            # rather than planning from a partial picture.
            return False
        self._last_eval_at = now
        shard_weights: dict[int, int] = {}
        for node_id in assignable:
            for shard, count in self._window[node_id].shard_messages.items():
                shard_weights[shard] = shard_weights.get(shard, 0) + count
        self._window.clear()
        moves = plan_rebalance(
            self._node.table, shard_weights, assignable, min_messages=config.rebalance_min_messages
        )
        if not moves:
            return False
        return self._execute(moves)

    def _execute(self, moves: list[ShardMove]) -> bool:
        node = self._node
        table = node.table
        overrides = dict(table.overrides)
        for move in moves:
            overrides[move.shard] = move.dst
        update = ShardTableUpdate(
            epoch=table.epoch + 1, nodes=table.nodes, overrides=tuple(sorted(overrides.items()))
        )
        plan = MigrationPlan(
            epoch=update.epoch, moves=tuple((m.shard, m.src, m.dst) for m in moves)
        )
        self.plans_total += 1
        self.moves_total += len(moves)
        self.last_plan_epoch = update.epoch
        # Plan first (observability), then install + broadcast the table:
        # per-peer FIFO delivery means every node sees the plan before the
        # epoch that executes it.
        node.broadcast_control(plan)
        node.migration_plans_seen += 1
        node._install_table(update)
        node.broadcast_control(update)
        return True

    def stats(self) -> dict:
        return {
            "reports_received": self.reports_received,
            "plans_total": self.plans_total,
            "moves_total": self.moves_total,
            "last_plan_epoch": self.last_plan_epoch,
        }
