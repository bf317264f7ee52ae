"""The micro-batching discipline, once, against a bare actor system.

The per-owner suites (``test_forecast_service.py``, ``test_route_optimizer.py``,
``test_writer_pool.py``) check what each owner does with a batch; this one
checks when a batch executes.
"""

import sys
import threading

from repro.actors import ActorSystem
from repro.platform.batching import BatchFlush, MicroBatcher
from repro.telemetry import Telemetry

LINGER_S = 2.0


class Pool:
    """The smallest owner: rows are anything, a batch is a list of them."""

    def __init__(self, system: ActorSystem, max_size: int = 3, linger_s: float = LINGER_S) -> None:
        self.system = system
        self.rows: list = []
        self.executed: list[list] = []
        self.batcher = MicroBatcher(
            system,
            self,
            lambda: len(self.rows),
            self._execute,
            max_size=max_size,
            linger_s=linger_s,
            capacity_reason="max_rows",
            size_metric="pool_batch_size",
            flushes_metric="pool_flushes_total",
            latency_metric="pool_latency_s",
        )
        self.batcher.spawn_timer("pool-flush")

    def add(self, row) -> None:
        if not self.rows:
            self.oldest = self.system.now
        self.rows.append(row)
        self.batcher.added()

    def add_locked(self, row) -> None:
        """What a non-actor owner does when several threads submit."""
        with self.batcher.lock:
            self.add(row)

    def flush(self, reason: str = "explicit") -> int:
        return self.batcher.flush(reason)

    def _execute(self, n: int) -> float:
        assert n == len(self.rows)
        batch, self.rows = self.rows, []
        self.executed.append(batch)
        return self.oldest


def advance(system: ActorSystem, dt_s: float) -> int:
    """Advance virtual time and run the fired timers; returns how many fired."""
    fired = system.advance_time(dt_s)
    system.run_until_idle()
    return fired


def test_capacity_flushes_on_the_filling_addition():
    pool = Pool(ActorSystem(), max_size=3, linger_s=1e9)
    pool.add("a")
    pool.add("b")
    assert pool.executed == []
    pool.add("c")
    assert pool.executed == [["a", "b", "c"]]
    assert pool.batcher.batches == 1


def test_linger_flushes_a_partial_batch():
    system = ActorSystem()
    pool = Pool(system)
    pool.add("a")
    assert advance(system, LINGER_S - 0.1) == 0
    assert pool.executed == []
    assert advance(system, 0.2) == 1
    assert pool.executed == [["a"]]


def test_zero_linger_arms_nothing():
    system = ActorSystem()
    pool = Pool(system, linger_s=0.0)
    pool.add("a")
    assert advance(system, 1e9) == 0
    assert pool.executed == []
    assert pool.flush() == 1


def test_empty_flush_returns_zero_and_counts_no_batch():
    pool = Pool(ActorSystem())
    assert pool.flush() == 0
    assert pool.batcher.batches == 0
    assert pool.executed == []


def test_explicit_flush_bumps_the_generation():
    pool = Pool(ActorSystem())
    before = pool.batcher.seq
    pool.flush()
    pool.add("a")
    pool.flush()
    assert pool.batcher.seq == before + 2


def test_stale_timer_is_ignored():
    """A capacity flush beats the armed timer and nothing queues behind it:
    the timer flushes nothing and does not re-arm."""
    system = ActorSystem()
    pool = Pool(system, max_size=2)
    pool.add("a")
    pool.add("b")
    assert pool.batcher.batches == 1
    assert advance(system, LINGER_S + 0.1) == 1
    assert pool.batcher.batches == 1
    assert advance(system, 10 * LINGER_S) == 0


def test_stale_timer_rearms_for_a_queued_tail():
    """A tail queued behind the flush that beat the timer lands one linger
    after the stale timer fires — on a single timer, never a second one."""
    system = ActorSystem()
    pool = Pool(system, max_size=2)
    for row in "abc":
        pool.add(row)
    assert pool.executed == [["a", "b"]]
    assert advance(system, LINGER_S + 0.1) == 1  # stale: re-arms
    assert pool.executed == [["a", "b"]]
    assert advance(system, LINGER_S - 0.2) == 0
    assert advance(system, 0.2) == 1  # the re-armed timer
    assert pool.executed == [["a", "b"], ["c"]]


def test_explicit_flush_message_leaves_the_timer_flag_alone():
    """An explicit flush through a mailbox (``seq=None``) flushes
    unconditionally; the timer in flight stays the only one."""
    system = ActorSystem()
    pool = Pool(system)
    pool.add("a")
    pool.batcher.on_flush_message(BatchFlush(reason="explicit", seq=None))
    assert pool.executed == [["a"]]
    pool.add("b")  # must not arm a second timer
    assert advance(system, LINGER_S + 0.1) == 1  # stale, re-arms for "b"
    assert advance(system, LINGER_S + 0.1) == 1
    assert pool.executed == [["a"], ["b"]]
    assert advance(system, 10 * LINGER_S) == 0


def test_every_trigger_goes_through_the_owners_flush():
    """Capacity and linger flushes look ``flush`` up on the owner instance
    at call time (the benchmark wraps that bound method per instance)."""
    system = ActorSystem()
    pool = Pool(system, max_size=2)
    seen = []
    inner = pool.flush
    pool.flush = lambda reason="explicit": seen.append(reason) or inner(reason)
    pool.add("a")
    pool.add("b")
    pool.add("c")
    advance(system, LINGER_S + 0.1)
    advance(system, LINGER_S + 0.1)
    pool.flush()
    assert seen == ["max_rows", "linger", "explicit"]


def test_reason_counters_and_histograms():
    system = ActorSystem()
    system.telemetry = Telemetry("test", clock=lambda: system.now)
    pool = Pool(system, max_size=2)
    pool.add("a")
    pool.add("b")  # capacity
    pool.add("c")
    advance(system, LINGER_S + 0.1)  # stale
    advance(system, LINGER_S + 0.1)  # linger
    pool.add("d")
    pool.flush()  # explicit
    pool.flush()  # empty: not counted
    registry = system.telemetry.registry
    for reason in ("max_rows", "linger", "explicit"):
        assert registry.counter("pool_flushes_total", {"reason": reason}).value == 1
    sizes = registry.histogram("pool_batch_size")
    assert sizes.count == 3 and sizes.max == 2
    latency = registry.histogram("pool_latency_s")
    assert latency.count == 3 and latency.max > LINGER_S


def test_concurrent_additions_lose_nothing_and_never_overfill():
    """Eight threads submit through the batcher's lock: every row executes
    exactly once and no batch exceeds the capacity (the capacity flush runs
    inside the lock that admitted the filling row)."""
    pool = Pool(ActorSystem(), max_size=7, linger_s=0.0)
    threads = [
        threading.Thread(target=lambda k=k: [pool.add_locked((k, i)) for i in range(500)])
        for k in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    pool.flush()
    assert all(len(batch) <= 7 for batch in pool.executed)
    rows = [row for batch in pool.executed for row in batch]
    assert sorted(rows) == [(k, i) for k in range(8) for i in range(500)]
