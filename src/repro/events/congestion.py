"""Port and berth congestion monitoring and prediction.

One of the paper's named future assets: "the monitoring and prediction of
berth and port congestion" (Section 7). The monitor watches vessel states
around catalogue ports:

* **monitoring** — vessels currently inside a port's approach radius,
  split into moving traffic and dwelling (slow/anchored) vessels,
* **prediction** — expected arrivals within a horizon, from each vessel's
  route forecast (any position of the forecast track entering the radius),
* a congestion flag when occupancy plus imminent arrivals exceed the
  port's nominal capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ais.ports import Port
from repro.geo.geodesy import equirectangular_distance_m
from repro.models.base import RouteForecast

#: Below this speed a vessel inside the radius counts as dwelling (moored,
#: anchored or manoeuvring to berth) rather than passing traffic.
DWELL_SPEED_KN = 2.0


@dataclass(frozen=True)
class CongestionReport:
    """Snapshot of one port's congestion state."""

    port: Port
    t: float
    dwelling: tuple[int, ...]  #: MMSIs moored/anchored inside
    moving: tuple[int, ...]  #: MMSIs under way inside
    expected_arrivals: tuple[int, ...]  #: MMSIs forecast to enter soon
    capacity: int

    @property
    def occupancy(self) -> int:
        return len(self.dwelling)

    @property
    def projected_occupancy(self) -> int:
        return self.occupancy + len(self.expected_arrivals)

    @property
    def congested(self) -> bool:
        return self.projected_occupancy > self.capacity

    @property
    def utilisation(self) -> float:
        return self.projected_occupancy / self.capacity if self.capacity else 0.0


@dataclass
class PortCongestionMonitor:
    """Tracks vessel states and forecasts around a set of ports.

    Feed it every vessel state update (and route forecast, when one
    exists); query :meth:`report` for any port. State is one record per
    vessel, so memory is bounded by fleet size.
    """

    ports: list[Port]
    radius_m: float = 15_000.0
    #: Nominal berth/anchorage capacity per port; defaults scale with the
    #: port's traffic weight.
    capacities: dict[str, int] = field(default_factory=dict)

    #: mmsi -> (t, lat, lon, sog)
    _states: dict[int, tuple[float, float, float, float]] = field(default_factory=dict)
    _forecasts: dict[int, RouteForecast] = field(default_factory=dict)

    def capacity_of(self, port: Port) -> int:
        return self.capacities.get(port.name, max(3, int(port.weight * 6)))

    def observe(
        self,
        mmsi: int,
        t: float,
        lat: float,
        lon: float,
        sog: float,
        forecast: RouteForecast | None = None,
    ) -> None:
        previous = self._states.get(mmsi)
        if previous is not None and t < previous[0]:
            return
        self._states[mmsi] = (t, lat, lon, sog)
        if forecast is not None:
            self._forecasts[mmsi] = forecast

    def _inside(self, port: Port, lat: float, lon: float) -> bool:
        return equirectangular_distance_m(port.lat, port.lon, lat, lon) <= self.radius_m

    def report(
        self,
        port: Port,
        now: float,
        arrival_horizon_s: float = 1_800.0,
        stale_after_s: float = 1_800.0,
    ) -> CongestionReport:
        """Congestion snapshot for ``port`` at stream time ``now``."""
        dwelling, moving, arrivals = [], [], []
        for mmsi, (t, lat, lon, sog) in self._states.items():
            if now - t > stale_after_s:
                continue
            if self._inside(port, lat, lon):
                (dwelling if sog < DWELL_SPEED_KN else moving).append(mmsi)
                continue
            forecast = self._forecasts.get(mmsi)
            if forecast is None:
                continue
            marks = zip(
                forecast.ts[1:].tolist(), forecast.lats[1:].tolist(), forecast.lons[1:].tolist()
            )
            for t, lat, lon in marks:
                if t - now > arrival_horizon_s:
                    break
                if self._inside(port, lat, lon):
                    arrivals.append(mmsi)
                    break
        return CongestionReport(
            port=port,
            t=now,
            dwelling=tuple(sorted(dwelling)),
            moving=tuple(sorted(moving)),
            expected_arrivals=tuple(sorted(arrivals)),
            capacity=self.capacity_of(port),
        )

    def congested_ports(self, now: float) -> list[CongestionReport]:
        """Reports for every monitored port that is (projected) congested,
        busiest first."""
        reports = [self.report(p, now) for p in self.ports]
        return sorted((r for r in reports if r.congested), key=lambda r: -r.utilisation)

    @property
    def tracked_vessels(self) -> int:
        return len(self._states)
