"""Supervision, dead letters and metrics under the *threaded* dispatcher.

The deterministic-dispatcher versions live in test_actor_system.py; these
verify the same contracts hold with real worker threads."""

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


@pytest.fixture
def system():
    system = ActorSystem(mode="threaded", workers=4)
    yield system
    system.shutdown()


class TestThreadedSupervision:
    def test_restart_resets_state_keeps_processing(self, system):
        ref = system.spawn(Flaky, "f",
                           strategy=RestartStrategy(max_restarts=5))
        ref.tell("inc")
        ref.tell("boom")
        ref.tell("inc")
        assert system.await_idle(timeout=30.0)
        assert system.ask_sync(ref, "get", timeout=5.0) == 1

    def test_resume_keeps_state(self, system):
        ref = system.spawn(Flaky, "f", strategy=ResumeStrategy())
        ref.tell("inc")
        ref.tell("boom")
        ref.tell("inc")
        assert system.await_idle(timeout=30.0)
        assert system.ask_sync(ref, "get", timeout=5.0) == 2

    def test_stop_strategy_dead_letters_followups(self, system):
        ref = system.spawn(Flaky, "f", strategy=StopStrategy())
        ref.tell("boom")
        assert system.await_idle(timeout=30.0)
        assert not system.exists("f")
        before = system.dead_letter_count
        ref.tell("inc")
        assert system.dead_letter_count == before + 1

    def test_restart_budget_escalates_under_concurrency(self, system):
        ref = system.spawn(Flaky, "f",
                           strategy=RestartStrategy(max_restarts=2))
        for _ in range(3):
            ref.tell("boom")
        assert system.await_idle(timeout=30.0)
        assert not system.exists("f")

    def test_supervision_stays_correct_under_load(self, system):
        refs = [system.spawn(Flaky, f"f{i}",
                             strategy=ResumeStrategy()) for i in range(4)]

        def blast(ref):
            for i in range(100):
                ref.tell("boom" if i % 10 == 0 else "inc")

        threads = [threading.Thread(target=blast, args=(r,)) for r in refs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert system.await_idle(timeout=30.0)
        for ref in refs:
            assert system.ask_sync(ref, "get", timeout=5.0) == 90


class TestThreadedDeadLetters:
    def test_unknown_actor(self, system):
        system.actor_ref("ghost").tell("x")
        assert system.dead_letter_count == 1

    def test_counts_are_thread_safe(self, system):
        def blast():
            for _ in range(200):
                system.actor_ref("ghost").tell("x")

        threads = [threading.Thread(target=blast) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert system.dead_letter_count == 800


class TestThreadedMetrics:
    def test_per_message_metrics_recorded(self):
        system = ActorSystem(mode="threaded", workers=4,
                             record_metrics=True)
        try:
            refs = [system.spawn(Flaky, f"f{i}") for i in range(4)]
            for ref in refs:
                for _ in range(50):
                    ref.tell("inc")
            assert system.await_idle(timeout=30.0)
            assert len(system.metrics) == 200
            counts, durations = system.metrics.as_arrays()
            assert (durations >= 0).all()
            assert counts.max() <= 4
        finally:
            system.shutdown()

    def test_snapshot_shape(self):
        system = ActorSystem(mode="threaded", workers=2,
                             record_metrics=True)
        try:
            ref = system.spawn(Flaky, "f")
            for _ in range(20):
                ref.tell("inc")
            assert system.await_idle(timeout=30.0)
            snap = system.metrics.snapshot()
            assert snap["samples"] == 20
            assert snap["p99_ms"] >= snap["p50_ms"] >= 0.0
            assert snap["max_ms"] >= snap["p99_ms"]
            assert snap["peak_actor_count"] == 1
            assert snap["total_s"] >= 0.0
        finally:
            system.shutdown()

    def test_snapshot_empty(self):
        from repro.telemetry.recorder import MetricsRecorder

        snap = MetricsRecorder().snapshot()
        assert snap["samples"] == 0
        assert snap["p50_ms"] == 0.0
        assert snap["p99_ms"] == 0.0
