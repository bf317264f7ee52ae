"""Close-proximity event detection.

"AIS positional data are sent to the cell actors for proximity event
detection" (Section 3): each H3 cell actor receives the positions falling in
its cell and flags vessel pairs closer than a threshold within a short time
window. :class:`ProximityDetector` is that per-cell state machine; the
platform instantiates one inside every cell actor, and the evaluation drives
it directly.

Each fix goes to its own resolution-8 cell only
(``VesselActor._on_position``); nothing is fanned out to neighbouring cells.
So two vessels within the threshold but in different cells (either side of
a cell edge, or of +-180 degrees) raise no event. Making the candidate stage
conservative in true metres is ROADMAP item 21.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.geodesy import equirectangular_distance_m


@dataclass(frozen=True)
class ProximityPairEvent:
    """Two vessels observed within ``distance_m`` of each other."""

    mmsi_a: int
    mmsi_b: int
    t: float
    distance_m: float
    lat: float  #: midpoint latitude
    lon: float  #: midpoint longitude

    @property
    def pair(self) -> tuple[int, int]:
        return tuple(sorted((self.mmsi_a, self.mmsi_b)))


class ProximityDetector:
    """Detects vessel pairs within a distance threshold.

    ``observe`` ingests timestamped positions; any other vessel seen within
    ``time_window_s`` whose position lies inside ``distance_threshold_m``
    produces an event. Every hit is reported: one encounter yields a hit
    per close observation, and the platform debounces them per pair in the
    pair's owner vessel actor, whichever cell reported them.
    """

    def __init__(self, distance_threshold_m: float = 500.0, time_window_s: float = 120.0) -> None:
        if distance_threshold_m <= 0:
            raise ValueError("distance threshold must be positive")
        self.distance_threshold_m = distance_threshold_m
        self.time_window_s = time_window_s
        #: mmsi -> (t, lat, lon) most recent observation.
        self._last_seen: dict[int, tuple[float, float, float]] = {}

    def export_state(self) -> dict:
        """The detector's working state for checkpointing."""
        return {"last_seen": dict(self._last_seen)}

    def restore_state(self, state: dict) -> None:
        self._last_seen = dict(state["last_seen"])

    def observe(self, mmsi: int, t: float, lat: float, lon: float) -> list[ProximityPairEvent]:
        """Ingest one position; returns the pairs it closes."""
        events = []
        for other, (ot, olat, olon) in self._last_seen.items():
            if other == mmsi or t - ot > self.time_window_s:
                continue
            d = equirectangular_distance_m(lat, lon, olat, olon)
            if d >= self.distance_threshold_m:
                continue
            a, b = sorted((mmsi, other))
            events.append(ProximityPairEvent(a, b, t, float(d), (lat + olat) / 2, (lon + olon) / 2))
        self._last_seen[mmsi] = (t, lat, lon)
        return events

    def prune(self, now: float) -> int:
        """Drop observations older than the time window; returns how many.

        Cell actors call this periodically so memory stays bounded even in
        the busiest cells.
        """
        stale = [m for m, (t, _, _) in self._last_seen.items() if now - t > self.time_window_s]
        for m in stale:
            del self._last_seen[m]
        return len(stale)

    @property
    def tracked_vessels(self) -> int:
        return len(self._last_seen)
