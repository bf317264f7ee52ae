"""Tests for membership state and the heartbeat failure detector.

Everything runs on an injected virtual clock — no sleeps."""

from repro.cluster import ClusterConfig, Membership, MemberState

import pytest


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make(clock=None, **overrides):
    defaults = dict(heartbeat_interval_s=0.5, suspect_after_s=2.0,
                    down_after_s=5.0)
    defaults.update(overrides)
    clock = clock or Clock()
    m = Membership("n1", ("127.0.0.1", 1), ClusterConfig(**defaults), clock)
    return m, clock


class TestViews:
    def test_self_is_member_and_leader(self):
        m, _ = make()
        assert m.alive_ids() == ["n1"]
        assert m.leader() == "n1"
        assert m.is_leader()

    def test_leader_is_lowest_alive(self):
        m, _ = make()
        m.add("n0", ("127.0.0.1", 2))
        assert m.leader() == "n0"
        assert not m.is_leader()
        m.mark_down("n0")
        assert m.leader() == "n1"

    def test_peer_ids_exclude_self_and_down(self):
        m, _ = make()
        m.add("n2", ("127.0.0.1", 2))
        m.add("n3", ("127.0.0.1", 3))
        m.mark_down("n3")
        assert m.peer_ids() == ["n2"]


class TestFailureDetection:
    def test_silence_goes_suspect_then_down(self):
        m, clock = make()
        m.add("n2", ("127.0.0.1", 2))
        assert m.check() == []

        clock.now = 2.0  # suspect_after_s reached
        events = m.check()
        assert [(e.node_id, e.state) for e in events] == \
            [("n2", MemberState.SUSPECT)]
        # Suspicion keeps the member in the alive set (no shard reshuffle).
        assert m.alive_ids() == ["n1", "n2"]

        clock.now = 5.0  # down_after_s reached
        events = m.check()
        assert [(e.node_id, e.state) for e in events] == \
            [("n2", MemberState.DOWN)]
        assert m.alive_ids() == ["n1"]

    def test_up_to_down_in_one_check(self):
        m, clock = make()
        m.add("n2", ("127.0.0.1", 2))
        clock.now = 10.0  # both thresholds passed before any check ran
        events = m.check()
        assert [e.state for e in events] == [MemberState.SUSPECT,
                                             MemberState.DOWN]

    def test_heartbeat_revives_suspect(self):
        m, clock = make()
        m.add("n2", ("127.0.0.1", 2))
        clock.now = 2.0
        m.check()
        assert m.get("n2").state is MemberState.SUSPECT
        assert m.heartbeat("n2") is True
        assert m.get("n2").state is MemberState.UP
        clock.now = 3.9  # < 2s since revival heartbeat
        assert m.check() == []

    def test_heartbeat_resets_silence_window(self):
        m, clock = make()
        m.add("n2", ("127.0.0.1", 2))
        for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            clock.now = t
            m.heartbeat("n2")
            assert m.check() == []

    def test_down_is_terminal(self):
        m, clock = make()
        m.add("n2", ("127.0.0.1", 2))
        clock.now = 10.0
        m.check()
        assert m.get("n2").state is MemberState.DOWN
        assert m.heartbeat("n2") is False   # too late
        assert m.get("n2").state is MemberState.DOWN
        assert m.mark_down("n2") is False   # already down, not a transition

    def test_rejoin_after_down_via_add(self):
        """A downed id can only come back through an explicit re-admission
        (the join protocol), which reports the alive set changed."""
        m, clock = make()
        m.add("n2", ("127.0.0.1", 2))
        clock.now = 10.0
        m.check()
        assert m.add("n2", ("127.0.0.1", 9)) is True
        assert m.get("n2").state is MemberState.UP

    def test_self_is_never_suspected(self):
        m, clock = make()
        clock.now = 1_000.0
        assert m.check() == []
        assert m.alive_ids() == ["n1"]


class TestConfigValidation:
    def test_bad_thresholds_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(suspect_after_s=5.0, down_after_s=2.0)
        with pytest.raises(ValueError):
            ClusterConfig(suspect_after_s=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(num_shards=0)

    @pytest.mark.parametrize("interval", [0.0, -0.5])
    def test_a_heartbeat_interval_must_be_positive(self, interval):
        # Only the config is built: a cluster ticked with it would step by
        # this interval, forever at 0 and away from the target below it.
        with pytest.raises(ValueError, match="heartbeat_interval_s"):
            ClusterConfig(heartbeat_interval_s=interval)


class TestSnapshotDiscipline:
    """Observers read copies, never live records — the contract telemetry
    gauges and node stats depend on under concurrent heartbeats."""

    def test_snapshot_returns_copies(self):
        m, _ = make()
        m.add("n2", ("127.0.0.1", 2))
        view = m.snapshot()
        assert [member.node_id for member in view] == ["n1", "n2"]
        view[1].state = MemberState.DOWN  # mutating the copy...
        assert m.get("n2").state is MemberState.UP  # ...changes nothing

    def test_get_returns_copy(self):
        m, _ = make()
        m.add("n2", ("127.0.0.1", 2))
        record = m.get("n2")
        record.last_heartbeat = -1.0
        assert m.get("n2").last_heartbeat != -1.0

    def test_state_counts_cover_every_state(self):
        m, clock = make()
        m.add("n2", ("127.0.0.1", 2))
        m.add("n3", ("127.0.0.1", 3))
        clock.now = 3.0
        m.check()  # n2, n3 fall SUSPECT
        m.heartbeat("n2")
        m.mark_down("n3")
        assert m.state_counts() == {"joining": 0, "up": 2,
                                    "suspect": 0, "down": 1}

    def test_state_of_matches_get_without_copy(self):
        m, _ = make()
        m.add("n2", ("127.0.0.1", 2))
        assert m.state_of("n2") is MemberState.UP
        m.mark_down("n2")
        assert m.state_of("n2") is MemberState.DOWN
        assert m.state_of("ghost") is None
