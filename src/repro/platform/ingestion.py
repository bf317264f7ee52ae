"""Stream ingestion: broker -> vessel actors.

"The data ingestion services of the processing engine consume streaming
real-time positional AIS data" (Section 3) from the stream broker. The
service parses NMEA sentences when the topic carries raw sentences, routes
every report to its vessel actor through the MMSI-keyed router, feeds the
switch-off watchdog, and drives the platform's virtual clock from stream
time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ais.message import AISMessage, StaticReport, decode_nmea
from repro.events.switchoff import SwitchOffDetector
from repro.platform.messages import EventRecord, PositionIngested
from repro.streams import ConsumerGroup
from repro.streams.columnar import PositionBlock
from repro.telemetry.trace import (
    STAGE_INGEST,
    clear_current_trace,
    set_current_trace,
)

if TYPE_CHECKING:
    from repro.platform.pipeline import PlatformWiring


#: The consumer group live ingestion commits its offsets under.
GROUP_ID = "platform"


class IngestionService:
    """Consumes the AIS topic and dispatches to vessel actors."""

    def __init__(self, wiring: "PlatformWiring") -> None:
        self.wiring = wiring
        self._group = ConsumerGroup(wiring.broker, GROUP_ID, wiring.config.ais_topic)
        self._consumer = self._group.join()
        #: The silence watchdog, at its default gap settings.
        self.switchoff = SwitchOffDetector()
        self.messages_ingested = 0
        self.parse_errors = 0
        self._last_switchoff_check = 0.0
        #: Reused across polls — poll_once runs per stream tick, and a
        #: fresh 2_000-slot list per call showed up in profiles.
        self._poll_buffer: list = []

    def _messages(self, record) -> list[AISMessage]:
        """Decode one broker record into its position reports: every row
        of a columnar :class:`PositionBlock`, an :class:`AISMessage` as
        is, a raw NMEA sentence parsed (statics and undecodable input
        yield nothing)."""
        value = record.value
        if isinstance(value, PositionBlock):
            columns = (value.mmsi, value.t, value.lat, value.lon, value.sog, value.cog)
            return [AISMessage(*row) for row in zip(*(column.tolist() for column in columns))]
        if isinstance(value, AISMessage):
            return [value]
        if isinstance(value, str):
            try:
                decoded = decode_nmea(value, t=record.timestamp)
            except ValueError:
                self.parse_errors += 1
                return []
            if isinstance(decoded, StaticReport):
                return []  # statics are cached elsewhere; not positional
            return [decoded]
        self.parse_errors += 1
        return []

    def _dispatch(self, records, live: bool) -> tuple[int, float]:
        """Route every position in ``records`` to its vessel actor: the
        one record -> ``PositionIngested`` path, shared by live ingestion
        and replay. Only ``live`` records feed the switch-off watchdog and
        the trace sampler (a replayed duplicate is not news). Returns the
        dispatch count and the newest stream time observed."""
        tell = self.wiring.vessel_router.tell
        observe = self.switchoff.observe
        telemetry = self.wiring.system.telemetry if live else None
        sample_every = self.wiring.config.trace_sample_every
        dispatched = 0
        newest_t = float("-inf")
        for record in records:
            messages = self._messages(record)
            if not messages:
                continue
            dispatched += len(messages)
            if live:
                for msg in messages:
                    observe(msg.mmsi, msg.t, msg.lat, msg.lon, msg.sog)
                    if msg.t > newest_t:
                        newest_t = msg.t
            if telemetry is not None and record.offset % sample_every == 0:
                # Trace ids derive from the record's broker identity (a
                # block's tags its first row), so a replayed run samples
                # the identical set of positions. The +1 keeps
                # partition-0/offset-0 from producing tid 0.
                tid = ((record.partition + 1) << 48) | record.offset
                telemetry.traces.record(tid, STAGE_INGEST)
                set_current_trace(tid)
                try:
                    tell(messages[0].mmsi, PositionIngested(messages[0]))
                finally:
                    clear_current_trace()
                messages = messages[1:]
            for msg in messages:
                tell(msg.mmsi, PositionIngested(msg))
        return dispatched, newest_t

    def poll_once(self, max_records: int = 2_000) -> int:
        """Consume up to ``max_records``; returns how many were dispatched.

        The platform's virtual clock advances to the newest stream
        timestamp seen, releasing any scheduled housekeeping messages.
        """
        records = self._consumer.poll(max_records=max_records, out=self._poll_buffer)
        dispatched, newest_t = self._dispatch(records, live=True)
        self._consumer.commit()
        if dispatched:
            system = self.wiring.system
            if newest_t > system.now:
                system.advance_time(newest_t - system.now)
            self._check_switchoffs(newest_t)
        self.messages_ingested += dispatched
        return dispatched

    def committed_offsets(self) -> dict[int, int]:
        """AIS partition -> offset live ingestion has committed."""
        config = self.wiring.config
        return {
            partition: self.wiring.broker.committed(GROUP_ID, config.ais_topic, partition)
            for partition in range(config.ais_partitions)
        }

    def replay(self, offsets: dict[int, int]) -> int:
        """Re-dispatch every AIS partition from ``offsets[partition]``
        (0 when absent) to its end, without moving the committed offsets.
        Returns the number of positions dispatched."""
        topic = self.wiring.config.ais_topic
        # The sole member of its group: assigned every partition.
        consumer = ConsumerGroup(self.wiring.broker, "platform-replay", topic).join()
        for partition in consumer.assignment:
            consumer.seek(topic, partition, offsets.get(partition, 0))
        replayed = 0
        buffer: list = []  # reused across polls (no per-poll allocation)
        while True:
            records = consumer.poll(max_records=2_000, out=buffer)
            if not records:
                break
            replayed += self._dispatch(records, live=False)[0]
        consumer.close()
        return replayed

    def _check_switchoffs(self, now: float, every_s: float = 120.0) -> None:
        if now - self._last_switchoff_check < every_s:
            return
        self._last_switchoff_check = now
        for event in self.switchoff.check(now):
            self.wiring.writer_ref.tell(
                EventRecord(kind="switchoff", t=event.t_detected, payload=event)
            )

    @property
    def lag(self) -> int:
        return self._group.lag()
