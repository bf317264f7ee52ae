"""Supervision, dead letters and metrics when mail comes from other threads.

The single-threaded versions live in test_actor_system.py; these send from
threads other than the test's, which then runs the one dispatcher — the
shape of a cluster node, whose transport threads queue frames and whose
pumping thread runs every actor."""

import threading

import pytest

from repro.actors import (
    Actor,
    ActorSystem,
    RestartStrategy,
    ResumeStrategy,
    StopStrategy,
)


class Flaky(Actor):
    def __init__(self):
        self.count = 0
        self.started = 0

    def pre_start(self, ctx):
        self.started += 1

    def receive(self, message, ctx):
        if message == "boom":
            raise RuntimeError("boom")
        if message == "get":
            ctx.reply(self.count)
        else:
            self.count += 1


def from_threads(*senders):
    """Run each sender on its own thread and wait for all of them."""
    threads = [threading.Thread(target=sender) for sender in senders]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
        assert not t.is_alive(), "a sender thread never finished"


def tell_all(ref, *messages):
    """A sender that tells ``messages`` to ``ref`` in order."""

    def send():
        for message in messages:
            ref.tell(message)

    return send


@pytest.fixture
def system():
    return ActorSystem()


class TestThreadedSupervision:
    def test_restart_resets_state_keeps_processing(self, system):
        ref = system.spawn(Flaky, "f", strategy=RestartStrategy(max_restarts=5))
        from_threads(tell_all(ref, "inc", "boom", "inc"))
        system.run_until_idle()
        assert system.ask_sync(ref, "get") == 1

    def test_resume_keeps_state(self, system):
        ref = system.spawn(Flaky, "f", strategy=ResumeStrategy())
        from_threads(tell_all(ref, "inc", "boom", "inc"))
        system.run_until_idle()
        assert system.ask_sync(ref, "get") == 2

    def test_stop_strategy_dead_letters_followups(self, system):
        ref = system.spawn(Flaky, "f", strategy=StopStrategy())
        from_threads(tell_all(ref, "boom"))
        system.run_until_idle()
        assert not system.exists("f")
        before = system.dead_letter_count
        from_threads(tell_all(ref, "inc"))
        assert system.dead_letter_count == before + 1

    def test_restart_budget_escalates_under_concurrency(self, system):
        ref = system.spawn(Flaky, "f", strategy=RestartStrategy(max_restarts=2))
        from_threads(*[tell_all(ref, "boom") for _ in range(3)])
        system.run_until_idle()
        assert not system.exists("f")

    def test_supervision_stays_correct_under_load(self, system):
        refs = [system.spawn(Flaky, f"f{i}", strategy=ResumeStrategy()) for i in range(4)]
        load = ["boom" if i % 10 == 0 else "inc" for i in range(100)]
        from_threads(*[tell_all(ref, *load) for ref in refs])
        system.run_until_idle()
        for ref in refs:
            assert system.ask_sync(ref, "get") == 90


class TestThreadedDeadLetters:
    def test_unknown_actor(self, system):
        from_threads(tell_all(system.actor_ref("ghost"), "x"))
        assert system.dead_letter_count == 1

    def test_counts_are_thread_safe(self, system):
        ghost = system.actor_ref("ghost")
        from_threads(*[tell_all(ghost, *["x"] * 200) for _ in range(4)])
        assert system.dead_letter_count == 800


class TestThreadedMetrics:
    def test_per_message_metrics_recorded(self):
        system = ActorSystem(record_metrics=True)
        refs = [system.spawn(Flaky, f"f{i}") for i in range(4)]
        from_threads(*[tell_all(ref, *["inc"] * 50) for ref in refs])
        system.run_until_idle()
        assert len(system.metrics) == 200
        counts, durations = system.metrics.as_arrays()
        assert (durations >= 0).all()
        assert counts.max() <= 4

    def test_snapshot_shape(self):
        system = ActorSystem(record_metrics=True)
        ref = system.spawn(Flaky, "f")
        from_threads(tell_all(ref, *["inc"] * 20))
        system.run_until_idle()
        snap = system.metrics.snapshot()
        assert snap["samples"] == 20
        assert snap["p99_ms"] >= snap["p50_ms"] >= 0.0
        assert snap["max_ms"] >= snap["p99_ms"]
        assert snap["peak_actor_count"] == 1
        assert snap["total_s"] >= 0.0

    def test_snapshot_empty(self):
        from repro.telemetry.recorder import MetricsRecorder

        snap = MetricsRecorder().snapshot()
        assert snap["samples"] == 0
        assert snap["p50_ms"] == 0.0
        assert snap["p99_ms"] == 0.0
