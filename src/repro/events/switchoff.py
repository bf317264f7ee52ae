"""Intentional AIS switch-off detection.

The platform logs "the switch-off of the AIS transmitter on a vessel [9]"
as a composite event (Section 5). The detector follows the reference's
logic: a vessel under way has an expected reporting cadence; when the gap
since its last message exceeds that cadence by a large factor — and the
vessel was moving, so it has not simply anchored — a switch-off event is
raised at the time the transmissions ceased.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ais.simulator import solas_reporting_interval_s


@dataclass(frozen=True)
class SwitchOffEvent:
    """A vessel's transmissions ceased while it was under way."""

    mmsi: int
    t_last_message: float
    t_detected: float
    last_lat: float
    last_lon: float
    last_sog: float

    @property
    def silence_s(self) -> float:
        return self.t_detected - self.t_last_message


class SwitchOffDetector:
    """Per-fleet gap watchdog over the AIS stream.

    ``observe`` ingests messages; ``check`` (called periodically with the
    stream clock, e.g. by the platform's scheduler) raises events for
    vessels silent longer than ``gap_factor`` times their expected interval,
    with an absolute floor of ``min_gap_s`` to tolerate ordinary reception
    dropouts.
    """

    def __init__(
        self, gap_factor: float = 20.0, min_gap_s: float = 900.0, moving_threshold_kn: float = 1.0
    ) -> None:
        self.gap_factor = gap_factor
        self.min_gap_s = min_gap_s
        self.moving_threshold_kn = moving_threshold_kn
        #: mmsi -> (t, lat, lon, sog) of the latest message.
        self._last: dict[int, tuple[float, float, float, float]] = {}
        #: vessels already flagged (cleared when they transmit again).
        self._flagged: set[int] = set()

    def observe(self, mmsi: int, t: float, lat: float, lon: float, sog: float) -> None:
        previous = self._last.get(mmsi)
        if previous is not None and t < previous[0]:
            return  # late/out-of-order duplicate
        self._last[mmsi] = (t, lat, lon, sog)
        self._flagged.discard(mmsi)

    def expected_gap_s(self, sog: float) -> float:
        """The silence duration that triggers detection for a vessel
        reporting at the SOLAS cadence for ``sog``."""
        nominal = solas_reporting_interval_s(sog)
        return max(nominal * self.gap_factor, self.min_gap_s)

    def check(self, now: float) -> list[SwitchOffEvent]:
        """Detect vessels whose silence exceeds their expected gap."""
        events = []
        for mmsi, (t, lat, lon, sog) in self._last.items():
            if mmsi in self._flagged:
                continue
            if sog < self.moving_threshold_kn:
                continue  # anchored vessels legitimately report slowly
            if now - t >= self.expected_gap_s(sog):
                events.append(SwitchOffEvent(mmsi, t, now, lat, lon, sog))
                self._flagged.add(mmsi)
        return events

    @property
    def tracked_vessels(self) -> int:
        return len(self._last)
