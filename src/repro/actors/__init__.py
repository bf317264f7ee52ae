"""An actor runtime (the platform's Akka substitute).

The paper's platform is "based on the actor model [7]" with Akka supplying
lightweight isolated actors, asynchronous message passing, supervision and
dynamic scaling (Section 3). This package implements those semantics:

* :class:`~repro.actors.actor.Actor` — user behaviour with run-to-completion
  message handling and lifecycle hooks,
* :class:`~repro.actors.system.ActorSystem` — spawning, dispatch, stopping,
  dead letters and a virtual-time scheduler; one deterministic dispatcher
  runs every actor on the thread that calls ``run_until_idle`` (per-core
  scaling is one process per cluster node, not a thread pool),
* :mod:`~repro.actors.supervision` — restart/stop/resume strategies applied
  when an actor's receive raises,
* :class:`~repro.actors.router.KeyRouter` — the "core partitioning
  functionality" that lazily creates one actor per key (per MMSI, per H3
  cell) and routes messages by key,
* :class:`~repro.telemetry.recorder.MetricsRecorder` — the per-message
  processing-time samples behind Figure 6 (re-exported here).
"""

from repro.actors.actor import Actor, ActorContext, ActorRef, Envelope
from repro.actors.mailbox import Mailbox
from repro.actors.router import KeyRouter
from repro.actors.supervision import (
    RestartStrategy,
    ResumeStrategy,
    StopStrategy,
    SupervisionStrategy,
)
from repro.actors.system import ActorSystem, AskTimeoutError, Future
from repro.telemetry.recorder import MetricsRecorder, MovingAverage

__all__ = [
    "Actor",
    "ActorContext",
    "ActorRef",
    "ActorSystem",
    "AskTimeoutError",
    "Envelope",
    "Future",
    "KeyRouter",
    "Mailbox",
    "MetricsRecorder",
    "MovingAverage",
    "RestartStrategy",
    "ResumeStrategy",
    "StopStrategy",
    "SupervisionStrategy",
]
