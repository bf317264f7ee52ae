"""Actor base class, references and envelopes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.telemetry.trace import current_trace

if TYPE_CHECKING:
    from repro.actors.system import ActorSystem, Future


@dataclass(slots=True)
class Envelope:
    """A message in flight: payload plus reply plumbing. Not frozen: the
    dispatcher stamps ``enqueued_at`` in place on delivery."""

    message: Any
    #: Set for ask-pattern messages; the receiving actor's context completes
    #: it via ``ctx.reply(...)``.
    reply_to: "Future | None" = None
    #: Telemetry trace this message belongs to (sampled; usually None).
    #: Stamped by :meth:`ActorRef.tell` from the thread-local current
    #: trace, so traced causality propagates without signature changes.
    trace_id: int | None = None
    #: Telemetry-clock time this envelope entered a mailbox; only stamped
    #: for traced envelopes (queue-delay measurement).
    enqueued_at: float | None = None


class ActorRef:
    """A location-transparent handle to an actor.

    Refs remain valid after the actor stops — messages sent to a stopped
    actor land in the system's dead-letter queue, as in Akka.
    """

    __slots__ = ("name", "_system")

    def __init__(self, name: str, system: "ActorSystem") -> None:
        self.name = name
        self._system = system

    def tell(self, message: Any) -> None:
        """Fire-and-forget send."""
        self._system._deliver(self.name, Envelope(message, None, current_trace()))

    def ask(self, message: Any) -> "Future":
        """Request-reply send; returns a :class:`Future` for the reply."""
        future = self._system._new_future()
        self._system._deliver(self.name, Envelope(message, future))
        return future

    def __repr__(self) -> str:
        return f"ActorRef({self.name!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ActorRef) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


class ActorContext:
    """The context handed to :meth:`Actor.receive`.

    The dispatcher reuses one context per actor: it points ``_envelope`` at
    the message being handled and clears it when the batch ends, so the
    context keeps no message alive past its drain. Use it only inside the
    call it was passed to.
    """

    __slots__ = ("system", "self_ref", "_envelope")

    def __init__(self, system: "ActorSystem", self_ref: ActorRef) -> None:
        self.system = system
        self.self_ref = self_ref
        self._envelope: Envelope | None = None

    def reply(self, value: Any) -> None:
        """Complete the ask future of the message being handled (a no-op
        for a plain tell)."""
        envelope = self._envelope
        if envelope is not None and envelope.reply_to is not None:
            envelope.reply_to.complete(value)

    def actor_of(self, name: str) -> ActorRef:
        """A ref to any actor by name (it need not exist yet)."""
        return ActorRef(name, self.system)

    def schedule(self, delay_s: float, target: ActorRef, message: Any) -> None:
        """Deliver ``message`` to ``target`` after ``delay_s`` of virtual
        time (see :meth:`ActorSystem.advance_time`)."""
        self.system.schedule(delay_s, target, message)


class Actor:
    """Base class for actor behaviours.

    Subclasses override :meth:`receive`; the runtime guarantees it is never
    executed concurrently with itself for the same actor instance
    (run-to-completion), which is what lets vessel actors keep mutable
    per-vessel state without locks — the property the paper's design builds
    on.
    """

    def receive(self, message: Any, ctx: ActorContext) -> None:
        raise NotImplementedError

    # -- lifecycle hooks ------------------------------------------------------

    def pre_start(self, ctx: ActorContext) -> None:
        """Called once before the first message is processed."""

    def post_stop(self) -> None:
        """Called after the actor is stopped (including via restart)."""

    def pre_restart(self, reason: BaseException) -> None:
        """Called on the failing instance before a supervised restart."""
