"""The actor system: spawning, dispatch, scheduling, supervision, metrics.

One dispatcher: :meth:`ActorSystem.run_until_idle` drains every mailbox on
the calling thread, so message interleaving is reproducible, which the
evaluation relies on; this is also the honest way to measure per-message
processing time on a shared host. ``tell`` may come from any thread (the
enqueue takes ``_lock``), but actors only ever run on the thread that calls
``run_until_idle`` — on a cluster node, the thread that pumps it. Under the
GIL per-core scaling comes from processes, one node each.

Time is virtual: :meth:`ActorSystem.advance_time` moves the clock and
releases scheduled messages. The platform drives it from its stream clock,
so a 24-hour replay runs as fast as the host allows.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from typing import Any, Callable

from repro.actors.actor import Actor, ActorContext, ActorRef, Envelope
from repro.actors.mailbox import Mailbox
from repro.actors.supervision import (
    Directive,
    RestartStrategy,
    SupervisionStrategy,
)
from repro.telemetry import Telemetry
from repro.telemetry.recorder import MetricsRecorder
from repro.telemetry.trace import clear_current_trace, set_current_trace

#: Envelopes one actor processes before the dispatcher moves to the next
#: ready actor (fairness between busy mailboxes).
BATCH_SIZE = 64


class AskTimeoutError(TimeoutError):
    """An ask future was awaited past its timeout without a reply."""


class Future:
    """A write-once container completed by the replying actor."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Any = None

    def complete(self, value: Any) -> None:
        self._value = value
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> Any:
        """The reply value; raises :class:`AskTimeoutError` if unavailable.

        Run the dispatcher first (:meth:`ActorSystem.run_until_idle`, or
        :meth:`ActorSystem.ask_sync` for both steps); a reply from another
        node arrives when its node is pumped until :attr:`done`.
        """
        if not self._event.wait(timeout):
            raise AskTimeoutError("ask future not completed")
        return self._value


class _Cell:
    """Runtime state of one actor."""

    __slots__ = (
        "name",
        "factory",
        "actor",
        "mailbox",
        "strategy",
        "restarts",
        "started",
        "stopped",
        "scheduled",
        "messages_processed",
        "tel_instruments",
    )

    def __init__(
        self, name: str, factory: Callable[[], Actor], strategy: SupervisionStrategy
    ) -> None:
        self.name = name
        self.factory = factory
        self.actor = factory()
        self.mailbox = Mailbox()
        self.strategy = strategy
        self.restarts = 0
        self.started = False
        self.stopped = False
        self.scheduled = False
        self.messages_processed = 0
        #: ``(entity, counter, histogram)`` resolved on first drain —
        #: saves the name split and registry lookup on every batch.
        self.tel_instruments: tuple | None = None


class ActorSystem:
    """Container and dispatcher for a set of actors."""

    def __init__(self, name: str = "system", record_metrics: bool = False) -> None:
        self.name = name
        self.metrics = MetricsRecorder() if record_metrics else None
        #: Optional :class:`~repro.telemetry.Telemetry` bundle. When set,
        #: the dispatcher feeds mailbox-depth / queue-delay / per-entity
        #: processing instruments and appends hops for traced envelopes.
        #: Assigned post-construction by the platform/cluster layer.
        self.telemetry: Telemetry | None = None
        #: Callable returning the population figure recorded with each
        #: metric sample. Defaults to the live actor count; the platform
        #: overrides it with the *vessel* actor count so the Figure 6 x
        #: axis is "number of distinct MMSIs", as in the paper.
        self.population_fn: Callable[[], int] | None = None
        #: Optional predicate on actor names limiting which deliveries are
        #: sampled into the metrics (e.g. only vessel actors, so the
        #: Figure 6 series measures per-AIS-message processing time).
        self.metrics_filter: Callable[[str], bool] | None = None
        self.dead_letters: deque[tuple[str, Envelope]] = deque(maxlen=10_000)
        self.dead_letter_count = 0

        self._cells: dict[str, _Cell] = {}
        self._lock = threading.RLock()
        self._active_count = 0
        self._now = 0.0
        self._timer_seq = itertools.count()
        self._timers: list[tuple[float, int, str, Any]] = []
        self._ready: deque[str] = deque()

    # -- spawning / stopping ----------------------------------------------------

    def spawn(
        self, factory: Callable[[], Actor], name: str, strategy: SupervisionStrategy | None = None
    ) -> ActorRef:
        """Create an actor. ``factory`` must build a fresh instance each call
        (it is reused by supervised restarts)."""
        with self._lock:
            existing = self._cells.get(name)
            if existing is not None and not existing.stopped:
                raise ValueError(f"actor {name!r} already exists")
            cell = _Cell(name, factory, strategy or RestartStrategy())
            self._cells[name] = cell
            self._active_count += 1
        return ActorRef(name, self)

    def actor_ref(self, name: str) -> ActorRef:
        return ActorRef(name, self)

    def exists(self, name: str) -> bool:
        with self._lock:
            cell = self._cells.get(name)
            return cell is not None and not cell.stopped

    @property
    def active_count(self) -> int:
        return self._active_count

    def total_mailbox_depth(self) -> int:
        """Messages queued across all live mailboxes right now (the
        cluster load reports' backlog gauge)."""
        with self._lock:
            return sum(len(cell.mailbox) for cell in self._cells.values() if not cell.stopped)

    def stop(self, ref: ActorRef) -> None:
        with self._lock:
            cell = self._cells.get(ref.name)
            if cell is None or cell.stopped:
                return
            cell.stopped = True
            self._active_count -= 1
        cell.actor.post_stop()

    def stop_all(self) -> None:
        with self._lock:
            names = [n for n, c in self._cells.items() if not c.stopped]
        for n in names:
            self.stop(ActorRef(n, self))

    # -- delivery ----------------------------------------------------------------

    def _new_future(self) -> Future:
        return Future()

    def _deliver(self, name: str, envelope: Envelope) -> None:
        telemetry = self.telemetry
        if telemetry is not None and envelope.trace_id is not None and envelope.enqueued_at is None:
            # Queue-delay stamping is traced-envelopes-only, and in-place:
            # the envelope is not yet in any mailbox, so mutating the
            # frozen dataclass here (the same way its __init__ does) is
            # unobservable and avoids a full copy per sampled message.
            object.__setattr__(envelope, "enqueued_at", telemetry.clock())
        with self._lock:
            cell = self._cells.get(name)
            if cell is None or cell.stopped:
                self.dead_letters.append((name, envelope))
                self.dead_letter_count += 1
                return
            cell.mailbox.put(envelope)
            if not cell.scheduled:
                cell.scheduled = True
                self._ready.append(name)

    # -- scheduling (virtual time) --------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay_s: float, target: ActorRef, message: Any) -> None:
        """Deliver ``message`` to ``target`` once virtual time advances by
        at least ``delay_s``."""
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        with self._lock:
            heapq.heappush(
                self._timers, (self._now + delay_s, next(self._timer_seq), target.name, message)
            )

    def advance_time(self, dt_s: float) -> int:
        """Move the virtual clock forward, firing due timers.

        Returns the number of timer messages delivered.
        """
        if dt_s < 0:
            raise ValueError("cannot move time backwards")
        with self._lock:
            self._now += dt_s
            due = []
            while self._timers and self._timers[0][0] <= self._now:
                due.append(heapq.heappop(self._timers))
        for _, _, name, message in due:
            self._deliver(name, Envelope(message=message))
        return len(due)

    # -- dispatch --------------------------------------------------------------------

    def run_until_idle(self) -> int:
        """Process mailboxes on this thread until every one is empty.

        Returns the number of messages processed.
        """
        processed = 0
        while self._ready:
            cell = self._cells.get(self._ready.popleft())
            if cell is not None:
                processed += self._process_cell(cell)
        return processed

    def ask_sync(self, ref: ActorRef, message: Any) -> Any:
        """Ask, drive the dispatcher to idle, and return the reply."""
        future = ref.ask(message)
        self.run_until_idle()
        return future.result(timeout=0.0)

    def _process_cell(self, cell: _Cell) -> int:
        """Drain one batch from a cell's mailbox, honouring supervision."""
        batch = cell.mailbox.get_batch(BATCH_SIZE)
        processed = 0
        telemetry = self.telemetry
        entity = entity_counter = proc_hist = None
        tel_clock = None
        batch_proc: list[float] | None = None
        if telemetry is not None and batch:
            # Instruments resolve once per *cell* and cache on it. Depth /
            # timing histograms only fill on sampled batches; traced
            # envelopes are always timed (they were already sampled at
            # ingest); message counters are exact.
            if cell.tel_instruments is None:
                entity = cell.name.split("-", 1)[0]
                cell.tel_instruments = (entity,) + telemetry.entity_instruments(entity)
            entity, entity_counter, proc_hist = cell.tel_instruments
            tel_clock = telemetry.clock
            if telemetry.sample_batch():
                telemetry.mailbox_depth.observe(len(batch))
                batch_proc = []
        for i, envelope in enumerate(batch):
            if cell.stopped:
                for leftover in batch[i:]:
                    self.dead_letters.append((cell.name, leftover))
                    self.dead_letter_count += 1
                break
            t0 = time.perf_counter()
            traced = tel_clock is not None and envelope.trace_id is not None
            timed = traced or batch_proc is not None
            tel_t0 = tel_clock() if timed else 0.0
            ok = self._process_envelope(cell, envelope)
            if timed:
                # Durations come from the telemetry clock, not the perf
                # counter: under a virtual clock they are exactly zero,
                # which keeps sim-layer telemetry deterministic per seed.
                proc_s = tel_clock() - tel_t0
                if batch_proc is not None:
                    batch_proc.append(proc_s)
                if traced:
                    queue_s = None
                    if envelope.enqueued_at is not None:
                        queue_s = tel_t0 - envelope.enqueued_at
                        telemetry.queue_delay.observe(queue_s)
                    telemetry.traces.record(
                        envelope.trace_id, entity, queue_s=queue_s, proc_s=proc_s
                    )
            if self.metrics is not None and (
                self.metrics_filter is None or self.metrics_filter(cell.name)
            ):
                population = (
                    self.population_fn() if self.population_fn is not None else self._active_count
                )
                self.metrics.record(population, time.perf_counter() - t0)
            processed += 1
            if not ok:
                # The cell stopped mid-batch: everything still queued becomes
                # a dead letter, like a stopped Akka actor's mailbox.
                leftovers = batch[i + 1 :] + cell.mailbox.get_batch(2**30)
                for leftover in leftovers:
                    self.dead_letters.append((cell.name, leftover))
                    self.dead_letter_count += 1
                break
        if entity_counter is not None and processed:
            entity_counter.inc(processed)
            if batch_proc:
                proc_hist.observe_many(batch_proc)
        # Reschedule if more messages arrived or remain.
        with self._lock:
            if not cell.stopped and len(cell.mailbox) > 0:
                self._ready.append(cell.name)
            else:
                cell.scheduled = False
        return processed

    def _process_envelope(self, cell: _Cell, envelope: Envelope) -> bool:
        """Run one delivery; returns False if the cell can no longer process
        (stopped by supervision)."""
        if envelope.trace_id is None:
            return self._run_envelope(cell, envelope)
        # While a traced message is in `receive`, its id is the thread's
        # current trace — every `tell` the actor makes inherits it.
        set_current_trace(envelope.trace_id)
        try:
            return self._run_envelope(cell, envelope)
        finally:
            clear_current_trace()

    def _run_envelope(self, cell: _Cell, envelope: Envelope) -> bool:
        ref = ActorRef(cell.name, self)
        ctx = ActorContext(self, ref, envelope)
        try:
            if not cell.started:
                cell.actor.pre_start(ctx)
                cell.started = True
            cell.actor.receive(envelope.message, ctx)
            cell.messages_processed += 1
            return True
        except Exception as exc:  # supervision boundary
            directive = cell.strategy.decide(cell.restarts)
            if directive is Directive.RESUME:
                cell.messages_processed += 1
                return True
            if directive is Directive.RESTART:
                cell.restarts += 1
                try:
                    cell.actor.pre_restart(exc)
                finally:
                    cell.actor.post_stop()
                cell.actor = cell.factory()
                cell.started = False
                return True
            # STOP
            with self._lock:
                if not cell.stopped:
                    cell.stopped = True
                    self._active_count -= 1
            cell.actor.post_stop()
            return False
