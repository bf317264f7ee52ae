"""Tests for the actor runtime: dispatch, supervision, scheduling, routing."""

import sys
import threading
import time

import pytest

from repro.actors import (
    Actor,
    ActorSystem,
    AskTimeoutError,
    KeyRouter,
    RestartStrategy,
    ResumeStrategy,
    StopStrategy,
)


class Echo(Actor):
    def receive(self, message, ctx):
        ctx.reply(("echo", message))


class Counter(Actor):
    def __init__(self):
        self.count = 0

    def receive(self, message, ctx):
        if message == "get":
            ctx.reply(self.count)
        else:
            self.count += 1


class Flaky(Actor):
    """Fails on 'boom', counts everything else."""

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


class TestBasicDispatch:
    def test_tell_and_state(self):
        system = ActorSystem()
        ref = system.spawn(Counter, "counter")
        for _ in range(5):
            ref.tell("inc")
        system.run_until_idle()
        assert system.ask_sync(ref, "get") == 5

    def test_ask_sync(self):
        system = ActorSystem()
        ref = system.spawn(Echo, "echo")
        assert system.ask_sync(ref, 42) == ("echo", 42)

    def test_ask_future_api(self):
        system = ActorSystem()
        ref = system.spawn(Echo, "echo")
        future = ref.ask("hi")
        assert not future.done
        system.run_until_idle()
        assert future.done
        assert future.result(timeout=0) == ("echo", "hi")

    def test_ask_timeout(self):
        system = ActorSystem()
        system.spawn(Counter, "c")
        future = system.actor_ref("c").ask("inc")  # Counter never replies to inc
        system.run_until_idle()
        with pytest.raises(AskTimeoutError):
            future.result(timeout=0)

    def test_duplicate_name_rejected(self):
        system = ActorSystem()
        system.spawn(Counter, "c")
        with pytest.raises(ValueError):
            system.spawn(Counter, "c")

    def test_name_reusable_after_stop(self):
        system = ActorSystem()
        ref = system.spawn(Counter, "c")
        system.stop(ref)
        system.spawn(Counter, "c")  # no error

    def test_messages_processed_in_order(self):
        received = []

        class Recorder(Actor):
            def receive(self, message, ctx):
                received.append(message)

        system = ActorSystem()
        ref = system.spawn(Recorder, "r")
        for i in range(100):
            ref.tell(i)
        system.run_until_idle()
        assert received == list(range(100))

    def test_actor_to_actor_messaging(self):
        class Forwarder(Actor):
            def receive(self, message, ctx):
                ctx.actor_of("sink").tell(message * 2)

        class Sink(Actor):
            def __init__(self):
                self.values = []

            def receive(self, message, ctx):
                if message == "get":
                    ctx.reply(self.values)
                else:
                    self.values.append(message)

        system = ActorSystem()
        fwd = system.spawn(Forwarder, "fwd")
        system.spawn(Sink, "sink")
        fwd.tell(21)
        system.run_until_idle()
        assert system.ask_sync(system.actor_ref("sink"), "get") == [42]


class TestDeadLetters:
    def test_unknown_actor(self):
        system = ActorSystem()
        system.actor_ref("ghost").tell("hello")
        assert system.dead_letter_count == 1

    def test_stopped_actor(self):
        system = ActorSystem()
        ref = system.spawn(Counter, "c")
        system.stop(ref)
        ref.tell("inc")
        assert system.dead_letter_count == 1

    def test_active_count_tracks_lifecycle(self):
        system = ActorSystem()
        refs = [system.spawn(Counter, f"c{i}") for i in range(3)]
        assert system.active_count == 3
        system.stop(refs[0])
        assert system.active_count == 2
        system.stop_all()
        assert system.active_count == 0


class TestSupervision:
    def test_restart_resets_state_keeps_mailbox(self):
        system = ActorSystem()
        ref = system.spawn(Flaky, "f", strategy=RestartStrategy(max_restarts=5))
        ref.tell("inc")
        ref.tell("boom")   # state lost here
        ref.tell("inc")
        system.run_until_idle()
        assert system.ask_sync(ref, "get") == 1  # only post-restart inc

    def test_resume_keeps_state(self):
        system = ActorSystem()
        ref = system.spawn(Flaky, "f", strategy=ResumeStrategy())
        ref.tell("inc")
        ref.tell("boom")
        ref.tell("inc")
        system.run_until_idle()
        assert system.ask_sync(ref, "get") == 2

    def test_stop_strategy_kills_actor(self):
        system = ActorSystem()
        ref = system.spawn(Flaky, "f", strategy=StopStrategy())
        ref.tell("boom")
        ref.tell("inc")
        system.run_until_idle()
        assert not system.exists("f")
        assert system.dead_letter_count >= 1

    def test_restart_budget_escalates_to_stop(self):
        system = ActorSystem()
        ref = system.spawn(Flaky, "f", strategy=RestartStrategy(max_restarts=2))
        for _ in range(3):
            ref.tell("boom")
        system.run_until_idle()
        assert not system.exists("f")

    def test_pre_start_called_after_restart(self):
        instances = []

        class Tracking(Flaky):
            def __init__(self):
                super().__init__()
                instances.append(self)

        system = ActorSystem()
        ref = system.spawn(Tracking, "f", strategy=RestartStrategy())
        ref.tell("inc")
        ref.tell("boom")
        ref.tell("inc")
        system.run_until_idle()
        assert len(instances) == 2
        assert instances[1].started == 1


class TestScheduling:
    def test_timer_fires_on_advance(self):
        system = ActorSystem()
        ref = system.spawn(Counter, "c")
        system.schedule(10.0, ref, "inc")
        system.advance_time(5.0)
        system.run_until_idle()
        assert system.ask_sync(ref, "get") == 0
        system.advance_time(5.0)
        system.run_until_idle()
        assert system.ask_sync(ref, "get") == 1

    def test_timers_fire_in_order(self):
        received = []

        class Recorder(Actor):
            def receive(self, message, ctx):
                received.append(message)

        system = ActorSystem()
        ref = system.spawn(Recorder, "r")
        system.schedule(30.0, ref, "late")
        system.schedule(10.0, ref, "early")
        system.advance_time(60.0)
        system.run_until_idle()
        assert received == ["early", "late"]

    def test_negative_delay_rejected(self):
        system = ActorSystem()
        ref = system.spawn(Counter, "c")
        with pytest.raises(ValueError):
            system.schedule(-1.0, ref, "x")

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            ActorSystem().advance_time(-1.0)

    def test_context_schedule(self):
        class SelfTimer(Actor):
            def __init__(self):
                self.got_tick = False

            def receive(self, message, ctx):
                if message == "start":
                    ctx.schedule(5.0, ctx.self_ref, "tick")
                elif message == "tick":
                    self.got_tick = True
                elif message == "get":
                    ctx.reply(self.got_tick)

        system = ActorSystem()
        ref = system.spawn(SelfTimer, "t")
        ref.tell("start")
        system.run_until_idle()
        system.advance_time(5.0)
        system.run_until_idle()
        assert system.ask_sync(ref, "get") is True


class TestKeyRouter:
    def test_one_actor_per_key(self):
        system = ActorSystem()
        router = KeyRouter(system, "vessel", lambda key: Counter())
        router.tell(239000001, "inc")
        router.tell(239000001, "inc")
        router.tell(239000002, "inc")
        system.run_until_idle()
        assert len(router) == 2
        assert router.spawned == 2
        assert system.ask_sync(router.route(239000001), "get") == 2
        assert system.ask_sync(router.route(239000002), "get") == 1

    def test_factory_receives_key(self):
        seen = []

        class KeyAware(Actor):
            def __init__(self, key):
                seen.append(key)

            def receive(self, message, ctx):
                pass

        system = ActorSystem()
        router = KeyRouter(system, "cell", lambda key: KeyAware(key))
        router.tell(613, "x")
        system.run_until_idle()
        assert seen == [613]

    def test_contains_and_known_keys(self):
        system = ActorSystem()
        router = KeyRouter(system, "v", lambda key: Counter())
        router.route(1)
        assert 1 in router
        assert 2 not in router
        assert router.known_keys() == [1]


class TestMetrics:
    def test_metrics_recorded_per_message(self):
        system = ActorSystem(record_metrics=True)
        ref = system.spawn(Counter, "c")
        for _ in range(10):
            ref.tell("inc")
        system.run_until_idle()
        assert len(system.metrics) == 10
        counts, durations = system.metrics.as_arrays()
        assert (durations >= 0).all()
        assert (counts == 1).all()

    def test_metrics_disabled_by_default(self):
        assert ActorSystem().metrics is None

    def test_curve_by_actor_count(self):
        system = ActorSystem(record_metrics=True)
        for i in range(50):
            ref = system.spawn(Counter, f"c{i}")
            ref.tell("inc")
            system.run_until_idle()
        xs, ys = system.metrics.curve_by_actor_count(window_actors=5)
        assert xs.size == 50
        assert ys.size == 50
        assert (ys >= 0).all()


def dispatch_while_sending(system, threads, timeout_s=30.0):
    """Start the sender ``threads`` and run the dispatcher on this thread,
    switching threads as often as the interpreter allows, until every
    sender has finished and the mailboxes are empty. Returns the number of
    messages processed."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + timeout_s
        processed = 0
        while any(t.is_alive() for t in threads):
            assert time.monotonic() < deadline, "a sender thread never finished"
            processed += system.run_until_idle()
        return processed + system.run_until_idle()
    finally:
        sys.setswitchinterval(interval)


class TestThreadedMode:
    """Senders on other threads, one dispatcher on the test thread."""

    def test_counts_are_correct_under_concurrency(self):
        system = ActorSystem()
        refs = [system.spawn(Counter, f"c{i}") for i in range(8)]

        def blast(ref):
            for _ in range(200):
                ref.tell("inc")

        threads = [threading.Thread(target=blast, args=(r,)) for r in refs]
        assert dispatch_while_sending(system, threads) == 8 * 200
        for ref in refs:
            assert system.ask_sync(ref, "get") == 200

    def test_actor_never_runs_concurrently_with_itself(self):
        class RaceDetector(Actor):
            def __init__(self):
                self.inside = False
                self.violations = 0
                self.count = 0

            def receive(self, message, ctx):
                if message == "get":
                    ctx.reply(self.violations)
                    return
                if self.inside:
                    self.violations += 1
                self.inside = True
                total = sum(range(200))  # do a little work
                del total
                self.count += 1
                self.inside = False

        system = ActorSystem()
        ref = system.spawn(RaceDetector, "race")

        def blast():
            for _ in range(300):
                ref.tell("work")

        threads = [threading.Thread(target=blast) for _ in range(4)]
        assert dispatch_while_sending(system, threads) == 4 * 300
        assert system.ask_sync(ref, "get") == 0
