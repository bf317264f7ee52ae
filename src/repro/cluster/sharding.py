"""Consistent-hash sharding of entity actors across nodes.

Entity keys (MMSIs, H3 cell ids) hash into a fixed number of *shards*;
shards map to nodes through a consistent-hash ring with virtual nodes. The
assignment is a pure function of the sorted alive-node list, so every node
derives the identical table from the coordinator's ``ShardTableUpdate``
(which only carries ``(epoch, nodes)``) — no per-shard state needs to be
gossiped, and a node joining or leaving moves only ~1/N of the shards.

All hashing uses :func:`stable_hash` (BLAKE2b over a canonical byte form),
never the builtin ``hash`` — Python randomises string hashing per process,
which would silently split the ring between nodes of a TCP cluster.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import TYPE_CHECKING, Any

from repro.actors.router import KeyRouter

if TYPE_CHECKING:
    from repro.cluster.node import ClusterNode


def stable_hash(value: Any) -> int:
    """A process-independent 64-bit hash of ints, strings and (nested)
    tuples."""
    data = _canonical_bytes(value)
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def _canonical_bytes(value: Any) -> bytes:
    if isinstance(value, tuple):
        return b"t:" + b"\x1f".join(_canonical_bytes(v) for v in value)
    if isinstance(value, bool):
        return b"b:" + (b"1" if value else b"0")
    if isinstance(value, int):
        return b"i:" + str(value).encode()
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8")
    if isinstance(value, bytes):
        return b"y:" + value
    raise TypeError(f"unhashable shard key type: {type(value).__name__}")


def shard_for_key(entity: str, key: Any, num_shards: int) -> int:
    """The shard an entity key lives in (stable across processes)."""
    return stable_hash((entity, key)) % num_shards


#: Platform message types bound lazily — the sharding layer must stay
#: importable without pulling :mod:`repro.platform` in (which imports the
#: cluster package right back).
_FORECAST_TYPES = None


def _forecast_messages():
    global _FORECAST_TYPES
    if _FORECAST_TYPES is None:
        from repro.platform.messages import ForecastShared, ForecastSharedBatch

        _FORECAST_TYPES = (ForecastShared, ForecastSharedBatch)
    return _FORECAST_TYPES


class HashRing:
    """Consistent-hash ring with virtual nodes."""

    def __init__(self, nodes: tuple[str, ...] | list[str], replicas: int = 32) -> None:
        if not nodes:
            raise ValueError("hash ring needs at least one node")
        points: list[tuple[int, str]] = []
        for node in nodes:
            for r in range(replicas):
                points.append((stable_hash(("ring", node, r)), node))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [n for _, n in points]

    def owner(self, shard: int) -> str:
        """The node owning ``shard`` (successor on the ring)."""
        idx = bisect.bisect_right(self._points, stable_hash(("shard", shard)))
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]


class ShardTable:
    """An epoch-stamped shard -> node assignment.

    The base assignment is derived from the node list via the consistent-
    hash ring; ``overrides`` layers the rebalancer's explicit
    ``shard -> owner`` moves on top. Overrides naming owners outside the
    node list are dropped (a failed node's moves must not resurrect it),
    and overrides equal to the derived owner are normalised away so two
    tables compare equal iff they route identically.
    """

    def __init__(
        self,
        epoch: int,
        nodes: tuple[str, ...],
        num_shards: int,
        replicas: int = 32,
        overrides: dict[int, str] | tuple[tuple[int, str], ...] | None = None,
    ) -> None:
        self.epoch = epoch
        self.nodes = tuple(sorted(nodes))
        self.num_shards = num_shards
        ring = HashRing(self.nodes, replicas=replicas)
        self.assignment: dict[int, str] = {shard: ring.owner(shard) for shard in range(num_shards)}
        kept: dict[int, str] = {}
        if overrides:
            pairs = overrides.items() if isinstance(overrides, dict) else overrides
            node_set = set(self.nodes)
            for shard, owner in pairs:
                if (
                    owner in node_set
                    and 0 <= shard < num_shards
                    and self.assignment[shard] != owner
                ):
                    kept[shard] = owner
                    self.assignment[shard] = owner
        #: The normalised override set (sorted pairs) — what the
        #: coordinator re-broadcasts and the install guard compares.
        self.overrides: tuple[tuple[int, str], ...] = tuple(sorted(kept.items()))

    def owner_of(self, shard: int) -> str:
        return self.assignment[shard]

    def shards_of(self, node_id: str) -> list[int]:
        return [s for s, n in self.assignment.items() if n == node_id]

    def moved_shards(self, other: "ShardTable") -> list[int]:
        """Shards whose owner differs between this table and ``other`` —
        the set a handoff must cover when ``other`` replaces this table."""
        return sorted(
            s for s in range(self.num_shards) if self.assignment.get(s) != other.assignment.get(s)
        )

    def problems(self) -> list[str]:
        """Internal-consistency violations of this table (empty when
        sound): every shard present exactly once, every owner a member of
        the node list. The sim harness asserts this after every scenario."""
        issues = []
        missing = [s for s in range(self.num_shards) if s not in self.assignment]
        if missing:
            issues.append(f"shards without owner: {missing}")
        node_set = set(self.nodes)
        foreign = sorted({n for n in self.assignment.values() if n not in node_set})
        if foreign:
            issues.append(f"owners outside node list: {foreign}")
        return issues

    def __repr__(self) -> str:
        counts: dict[str, int] = {}
        for node in self.assignment.values():
            counts[node] = counts.get(node, 0) + 1
        return f"ShardTable(epoch={self.epoch}, {counts})"


class ShardRouter:
    """Location-transparent router for one entity type.

    Drop-in replacement for :class:`~repro.actors.router.KeyRouter` in the
    platform wiring: ``tell(key, message)`` delivers locally when this node
    owns the key's shard (lazily spawning the actor, exactly like the
    single-node router) and otherwise serializes the message to the owner
    node. ``__len__`` / ``known_keys`` report the *local* entity population,
    which is what per-node metrics and handoff need.
    """

    #: Clear the key -> shard memo past this many distinct keys.
    _SHARD_CACHE_MAX = 1 << 20

    def __init__(
        self, node: "ClusterNode", entity: str, factory, strategy=None, local_router=None
    ) -> None:
        self._node = node
        self.entity = entity
        # ``is None``, not truthiness: an empty CollisionCellRouter is falsy.
        if local_router is None:
            local_router = KeyRouter(node.system, entity, factory, strategy=strategy)
        self._local = local_router
        #: Messages routed away from this node (remote deliveries).
        self.remote_told = 0
        #: shard -> messages delivered locally since the last load report
        #: (the rebalancer's per-shard weight signal; take-and-reset).
        self._shard_load: dict[int, int] = {}
        #: key -> shard memo. ``shard_for_key`` is a pure function of
        #: (entity, key, num_shards) — only the shard -> *node* assignment
        #: moves with membership — so the memo survives table changes.
        #: One BLAKE2b digest per *distinct* key instead of per tell.
        self._shard_cache: dict[Any, int] = {}

    def shard_of(self, key: Any) -> int:
        shard = self._shard_cache.get(key)
        if shard is None:
            if len(self._shard_cache) >= self._SHARD_CACHE_MAX:
                self._shard_cache.clear()
            shard = self._shard_cache[key] = shard_for_key(
                self.entity, key, self._node.config.num_shards
            )
        return shard

    def owner_of(self, key: Any) -> str:
        return self._node.shard_owner(self.shard_of(key))

    def is_local(self, key: Any) -> bool:
        return self.owner_of(key) == self._node.node_id

    def route(self, key: Any):
        """Local ref for a locally-owned key (used by handoff/tests)."""
        return self._local.route(key)

    def tell(self, key: Any, message: Any, sender=None) -> None:
        shard = self.shard_of(key)
        if self._node.shard_owner(shard) == self._node.node_id:
            self._shard_load[shard] = self._shard_load.get(shard, 0) + 1
            self._local.tell(key, message, sender=sender)
        else:
            self.remote_told += 1
            self._node.send_sharded(self.entity, key, message, sender=sender)

    def take_shard_load(self) -> dict[int, int]:
        """Per-shard local delivery counts since the previous call
        (feeds this node's :class:`~repro.cluster.protocol.LoadReport`)."""
        load, self._shard_load = self._shard_load, {}
        return load

    def share_forecast(self, cells, forecast, sender=None) -> None:
        """Fan one forecast out to many collision cells: the locally owned
        ones in one call to the local router's single-occupant stash, the
        remote legs batched — cells owned by the same node travel in a
        single :class:`~repro.platform.messages.ForecastSharedBatch`
        envelope instead of one wire message per cell."""
        ForecastShared, ForecastSharedBatch = _forecast_messages()
        node_id = self._node.node_id
        local: list[int] = []
        remote: dict[str, list[int]] = {}
        for cell in cells:
            shard = self.shard_of(cell)
            owner = self._node.shard_owner(shard)
            if owner == node_id:
                self._shard_load[shard] = self._shard_load.get(shard, 0) + 1
                local.append(cell)
            else:
                remote.setdefault(owner, []).append(cell)
        self._local.share_forecast(local, forecast, sender=sender)
        for group in remote.values():
            self.remote_told += len(group)
            if len(group) == 1:
                message = ForecastShared(cell=group[0], forecast=forecast)
            else:
                message = ForecastSharedBatch(cells=tuple(group), forecast=forecast)
            self._node.send_sharded(self.entity, group[0], message, sender=sender)

    def deliver_local(self, key: Any, message: Any, sender=None) -> None:
        """Entry point for inbound wire messages (bypasses ownership —
        the node already resolved/forwarded). Forecast fan-out reaches the
        local stash through :meth:`share_forecast`; cells of a batch whose
        shard moved while the envelope was in flight re-route one by one."""
        ForecastShared, ForecastSharedBatch = _forecast_messages()
        if isinstance(message, (ForecastShared, ForecastSharedBatch)):
            forecast, local = message.forecast, []
            for cell in message.cells if type(message) is ForecastSharedBatch else (key,):
                if self.is_local(cell):
                    local.append(cell)
                else:
                    self.tell(cell, ForecastShared(cell=cell, forecast=forecast), sender=sender)
            self.share_forecast(local, forecast, sender=sender)
            return
        shard = self.shard_of(key)
        self._shard_load[shard] = self._shard_load.get(shard, 0) + 1
        self._local.tell(key, message, sender=sender)

    # -- local population (KeyRouter-compatible surface) -----------------------

    def stashed_state(self, key: Any) -> dict | None:
        """Checkpoint view of a single-occupant stashed key, when the
        local router keeps one (collision cells); ``None`` otherwise."""
        stashed = getattr(self._local, "stashed_state", None)
        return stashed(key) if stashed is not None else None

    def known_keys(self) -> list[Any]:
        return self._local.known_keys()

    def __len__(self) -> int:
        return len(self._local)

    def __contains__(self, key: Any) -> bool:
        return key in self._local

    @property
    def spawned(self) -> int:
        return self._local.spawned

    def export_state(self, key: Any) -> dict | None:
        """Exported actor state for a local key: the live actor's
        ``export_state()`` when one is spawned, else the local router's
        stash (single-occupant collision cells). ``None`` when the key
        carries no recoverable state. Shared by checkpoint capture and
        the live-migration state transfer."""
        system = self._node.system
        with system._lock:
            cell = system._cells.get(f"{self.entity}-{key}")
        if cell is None or cell.stopped:
            return self.stashed_state(key)
        export = getattr(cell.actor, "export_state", None)
        return export() if export is not None else None

    # -- handoff ----------------------------------------------------------------

    def handoff_keys(self) -> list[Any]:
        """Local keys whose shard this node no longer owns."""
        return [k for k in self._local.known_keys() if not self.is_local(k)]

    def release(self, key: Any) -> list:
        """Stop the local actor for ``key`` and return the undelivered
        envelopes drained from its mailbox (for buffered redelivery)."""
        system = self._node.system
        name = f"{self.entity}-{key}"
        pending = []
        with system._lock:
            cell = system._cells.get(name)
            if cell is not None and not cell.stopped:
                pending = cell.mailbox.get_batch(2**30)
        if cell is not None and not cell.stopped:
            system.stop(system.actor_ref(name))
        self._local.forget(key)
        return pending
