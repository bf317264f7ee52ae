"""Key-based routing with lazy actor creation.

The paper's "core partitioning functionality generates multiple actors N,
with each one corresponding to a specific vessel as defined by its MMSI"
(Section 3). :class:`KeyRouter` is that functionality, generalised so the
same mechanism also backs the spatial *cell actors* (key = H3 cell id):
the first message routed to an unseen key spawns the actor for that key.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.actors.actor import Actor, ActorRef
from repro.actors.system import ActorSystem


class KeyRouter:
    """Routes messages to one actor per key, spawning on first use."""

    def __init__(self, system: ActorSystem, prefix: str,
                 factory: Callable[[Any], Actor]) -> None:
        """``factory`` receives the key and returns the actor behaviour for
        it; ``prefix`` namespaces the actor names (e.g. ``vessel``)."""
        self._system = system
        self._prefix = prefix
        self._factory = factory
        self._refs: dict[Any, ActorRef] = {}
        self.spawned = 0

    def _name(self, key: Any) -> str:
        return f"{self._prefix}-{key}"

    def route(self, key: Any) -> ActorRef:
        """The actor for ``key``, created now if this key is new."""
        ref = self._refs.get(key)
        if ref is None:
            ref = self._system.spawn(lambda k=key: self._factory(k),
                                     self._name(key))
            self._refs[key] = ref
            self.spawned += 1
        return ref

    def tell(self, key: Any, message: Any) -> None:
        """Route-and-send in one step."""
        self.route(key).tell(message)

    def forget(self, key: Any) -> bool:
        """Drop the ref for ``key`` so a later route spawns a fresh actor.

        Used by shard handoff: after the actor for a key is stopped and its
        shard moves to another node, the stale ref must not shadow a future
        re-acquisition of the shard. Returns True if the key was known.
        """
        return self._refs.pop(key, None) is not None

    def known_keys(self) -> list[Any]:
        return list(self._refs)

    def __len__(self) -> int:
        return len(self._refs)

    def __contains__(self, key: Any) -> bool:
        return key in self._refs
