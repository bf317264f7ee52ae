"""The pair's owner vessel decides what an encounter is.

Cells report every raw proximity / collision hit to the vessel actor of
``min(pair)``. That owner accepts a hit only if its identity
``(kind, pair, int(t // event_debounce_s))`` is new (``t`` is the event time
for proximity, ``forecast_at`` for collision). An accepted hit becomes the
one ``EventRecord`` written for it and is forwarded to the partner, ``pair[1]``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ais.message import AISMessage
from repro.events.collision import CollisionForecast
from repro.events.proximity import ProximityPairEvent
from repro.models import LinearKinematicModel
from repro.platform import Platform, PlatformConfig
from repro.platform.messages import CollisionAlert, ProximityAlert, RestoreState

OWNER = 240_000_001
DEBOUNCE = PlatformConfig().event_debounce_s


def make_platform() -> Platform:
    return Platform(forecaster=LinearKinematicModel())


def vessel(platform: Platform, mmsi: int):
    return platform.system._cells[f"vessel-{mmsi}"].actor


def alert(kind: str, partner: int, t: float):
    """A raw hit on ``(OWNER, partner)`` at stream time ``t``."""
    if kind == "proximity":
        event = ProximityPairEvent(
            mmsi_a=OWNER, mmsi_b=partner, t=t, distance_m=100.0, lat=38.0, lon=23.0
        )
        return ProximityAlert(event=event)
    event = CollisionForecast(
        mmsi_a=partner,
        mmsi_b=OWNER,
        t_expected=t + 600.0,
        lat=38.0,
        lon=23.0,
        min_distance_m=50.0,
        forecast_at=t,
    )
    return CollisionAlert(event=event)


def identity(kind: str, partner: int, t: float) -> tuple:
    return (kind, (OWNER, partner), int(t // DEBOUNCE))


def deliver(platform: Platform, alerts) -> None:
    """Hand ``alerts`` to their owner, as the cells do, and flush."""
    for message in alerts:
        platform.wiring.vessel_router.tell(message.event.pair[0], message)
    platform.system.run_until_idle()
    platform.wiring.writer_ref.flush()
    platform.system.run_until_idle()


def records(platform: Platform) -> list:
    """The identity of every record the writer stored."""
    written = []
    for event in platform.kvstore.lrange("events:proximity", 0, -1):
        written.append(identity("proximity", event.mmsi_b, event.t))
    for event in platform.kvstore.lrange("events:collision", 0, -1):
        written.append(identity("collision", event.mmsi_a, event.forecast_at))
    return written


#: Alerts within two adjacent buckets: later than that, a mark has aged out.
SPECS = st.lists(
    st.tuples(
        st.sampled_from(["proximity", "collision"]),
        st.sampled_from([OWNER + 1, OWNER + 2, OWNER + 3]),
        st.floats(min_value=0.0, max_value=2 * DEBOUNCE - 1.0),
    ),
    min_size=1,
    max_size=30,
)


class TestOwnerRule:
    @settings(max_examples=50, deadline=None)
    @given(specs=SPECS, data=st.data())
    def test_any_arrival_order_records_the_same_encounters(self, specs, data):
        """Any permutation of one multiset of hits gives the same accepted
        identities and one record per distinct identity."""
        shuffled = data.draw(st.permutations(specs))
        outcomes = []
        for order in (specs, shuffled):
            platform = make_platform()
            deliver(platform, [alert(*spec) for spec in order])
            written = records(platform)
            assert len(written) == platform.wiring.writer_ref.events_written
            outcomes.append((set(vessel(platform, OWNER).event_marks), sorted(written)))
        distinct = {identity(*spec) for spec in specs}
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == distinct and len(outcomes[0][1]) == len(distinct)

    def test_repeats_within_a_bucket_give_one_record(self):
        platform = make_platform()
        deliver(platform, [alert("proximity", OWNER + 1, 100.0 + i) for i in range(5)])
        assert platform.kvstore.llen("events:proximity") == 1

    def test_the_next_bucket_gives_a_new_record(self):
        platform = make_platform()
        deliver(platform, [alert("proximity", OWNER + 1, t) for t in (100.0, 200.0)])
        deliver(platform, [alert("proximity", OWNER + 1, DEBOUNCE + 100.0)])
        assert platform.kvstore.llen("events:proximity") == 2

    def test_an_alert_one_bucket_late_is_still_suppressed(self):
        platform = make_platform()
        deliver(platform, [alert("collision", OWNER + 1, t) for t in (100.0, DEBOUNCE + 100.0)])
        deliver(platform, [alert("collision", OWNER + 1, 200.0)])
        assert platform.kvstore.llen("events:collision") == 2

    def test_a_hit_older_than_the_marks_window_is_dropped_and_counted(self):
        """Buckets 0, 2, then 0 again: bucket 2 pruned bucket 0's mark, so
        the late hit must not record ``(collision, pair, 0)`` a second time."""
        platform = make_platform()
        times = (100.0, 2 * DEBOUNCE + 100.0, 200.0)
        deliver(platform, [alert("collision", OWNER + 1, t) for t in times])
        assert sorted(records(platform)) == [identity("collision", OWNER + 1, t) for t in times[:2]]
        assert platform.stats()["late_hits_dropped"] == 1

    def test_marks_stay_bounded_after_1000_buckets(self):
        platform = make_platform()
        hits = [alert("proximity", OWNER + 1 + k % 7, k * DEBOUNCE) for k in range(1_000)]
        deliver(platform, hits)
        owner = vessel(platform, OWNER)
        assert platform.wiring.writer_ref.events_written == 1_000
        # Only the newest bucket and the one before it are held.
        assert {mark[2] for mark in owner.event_marks} == {998, 999}
        assert len(owner.event_marks) == 2

    def test_a_restored_owner_does_not_re_record(self):
        source = make_platform()
        fix = AISMessage(mmsi=OWNER, t=50.0, lat=38.0, lon=23.0, sog=10.0, cog=90.0)
        source.publish_messages([fix])
        source.process_available()
        deliver(source, [alert("proximity", OWNER + 1, 100.0)])
        state = vessel(source, OWNER).export_state()

        target = make_platform()
        restore = RestoreState(entity="vessel", key=OWNER, state=state)
        target.wiring.vessel_router.tell(OWNER, restore)
        deliver(target, [alert("proximity", OWNER + 1, 300.0)])
        assert target.kvstore.llen("events:proximity") == 0
        deliver(target, [alert("proximity", OWNER + 1, DEBOUNCE + 300.0)])
        assert target.kvstore.llen("events:proximity") == 1

    def test_a_handed_off_owner_records_again_on_its_new_node(self):
        """A live handoff leaves the marks behind with the records they
        vouch for: the old node may crash and take the record with it, so
        the new owner records a recurring hit on its own node."""
        source = make_platform()
        fix = AISMessage(mmsi=OWNER, t=50.0, lat=38.0, lon=23.0, sog=10.0, cog=90.0)
        source.publish_messages([fix])
        source.process_available()
        deliver(source, [alert("proximity", OWNER + 1, 100.0)])
        state = vessel(source, OWNER).export_state()

        target = make_platform()
        handoff = RestoreState(entity="vessel", key=OWNER, state=state, handoff=True)
        target.wiring.vessel_router.tell(OWNER, handoff)
        deliver(target, [alert("proximity", OWNER + 1, 300.0)] * 2)
        assert target.kvstore.llen("events:proximity") == 1
        assert vessel(target, OWNER).last_kept_t == 50.0

    def test_the_partner_flags_only_accepted_alerts(self):
        platform = make_platform()
        partner = OWNER + 1
        hits = [alert("proximity", partner, t) for t in (100.0, 130.0, 160.0)]
        hits += [alert("collision", partner, t) for t in (100.0, 130.0, DEBOUNCE + 10.0)]
        deliver(platform, hits)
        accepted = ["proximity@100", "collision@700", "collision@1510"]
        assert list(vessel(platform, partner).event_flags) == accepted
        assert list(vessel(platform, OWNER).event_flags) == accepted
        assert vessel(platform, partner).event_marks == set()
