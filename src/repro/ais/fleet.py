"""Vectorised fleet-scale AIS stream generator.

The paper's Table 1 dataset is a 24-hour continental stream (14.6M messages
from ~15K vessels) and its Figure 6 run tracks 170K vessels. Generating such
volumes one Python object at a time is hopeless, so this engine keeps the
whole fleet's kinematic state in numpy arrays and advances every vessel per
tick in a handful of vectorised operations. Messages are produced as
struct-of-arrays :class:`MessageBatch` chunks; only small scenarios should
ever expand them to :class:`~repro.ais.message.AISMessage` objects.

The kinematic model matches :mod:`repro.ais.simulator` (waypoint following
with turn-rate limits and speed noise); reporting uses the same SOLAS
schedule quantised to the tick length, and the channel applies coverage
drops, timestamp jitter and satellite-pass gating.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.ais.message import AISMessage
from repro.ais.ports import PORTS, Port, ports_in_bbox
from repro.ais.routes import port_distance_m, route_waypoints, voyage_modes
from repro.ais.vessel import VesselStatics, random_statics
from repro.geo.bbox import BoundingBox
from repro.geo.constants import KNOTS_TO_MPS, METERS_PER_DEG_LAT
from repro.geo.geodesy import destination_point, haversine_m, initial_bearing_deg


@dataclass
class FleetConfig:
    """Configuration for a fleet run.

    ``start_window_s`` staggers first appearances across the run, which is
    what produces Figure 6's growing number of distinct MMSIs; set it to 0 to
    have every vessel active from t=0 (Table 1's steady 24-hour coverage).
    """

    n_vessels: int = 200
    duration_s: float = 6 * 3600.0
    tick_s: float = 30.0
    seed: int = 0
    bbox: BoundingBox | None = None
    start_window_s: float = 0.0
    satellite_fraction: float = 0.25
    coverage: float = 0.94
    jitter_s: float = 2.0
    satellite_pass_period_s: float = 5_400.0
    satellite_pass_duration_s: float = 900.0
    #: Approximate spacing between route waypoints, km. Dense enough that a
    #: typical vessel alters course within any 30-minute window — the
    #: curvature structure the learned model exploits over dead reckoning.
    waypoint_spacing_km: float = 12.0
    base_mmsi: int = 200_000_000
    #: Broadcast-sensor noise on reported SOG (knots) and COG (degrees).
    sog_noise_kn: float = 0.05
    cog_noise_deg: float = 0.30
    #: Unpredictable heading random walk (deg per sqrt-second): helmsman and
    #: sea-state wander that no model can forecast. Sets the irreducible
    #: error floor of the route-forecasting problem.
    heading_wobble: float = 0.10
    #: Stationary std (m/s) of the per-vessel current/leeway drift — an
    #: Ornstein-Uhlenbeck velocity added to every displacement. Because it
    #: decorrelates over ``drift_tau_s`` it is unpredictable at the 30-minute
    #: horizon, giving both forecasting models a common error floor (real
    #: AIS forecasting faces the same floor from weather and currents).
    drift_sd_mps: float = 0.20
    #: Correlation time of the drift process, seconds.
    drift_tau_s: float = 1_200.0


#: The columns of a :class:`MessageBatch`, in field order.
_COLUMNS = ("mmsi", "t", "lat", "lon", "sog", "cog")


@dataclass
class MessageBatch:
    """A struct-of-arrays chunk of AIS position reports, sorted by time."""

    mmsi: np.ndarray  #: int64
    t: np.ndarray  #: float64 seconds
    lat: np.ndarray
    lon: np.ndarray
    sog: np.ndarray  #: knots
    cog: np.ndarray  #: degrees

    def __len__(self) -> int:
        return int(self.mmsi.shape[0])

    def _take(self, idx: np.ndarray) -> MessageBatch:
        """The rows ``idx``, in that order."""
        return MessageBatch(*(getattr(self, c)[idx] for c in _COLUMNS))

    @staticmethod
    def empty() -> MessageBatch:
        return MessageBatch(np.zeros(0, dtype=np.int64), *(np.zeros(0) for _ in _COLUMNS[1:]))

    @staticmethod
    def concat(batches: list[MessageBatch]) -> MessageBatch:
        if not batches:
            return MessageBatch.empty()
        return MessageBatch(*(np.concatenate([getattr(b, c) for b in batches]) for c in _COLUMNS))

    def sorted_by_time(self) -> MessageBatch:
        return self._take(np.argsort(self.t, kind="stable"))

    def per_vessel(self) -> dict[int, MessageBatch]:
        """Split into per-MMSI batches, each sorted by time."""
        order = np.lexsort((self.t, self.mmsi))
        runs = np.split(order, np.flatnonzero(np.diff(self.mmsi[order])) + 1)
        return {int(self.mmsi[run[0]]): self._take(run) for run in runs if run.size}

    def to_messages(self, source: str = "terrestrial") -> list[AISMessage]:
        """Expand to message objects (small batches only)."""
        rows = zip(*(getattr(self, c).tolist() for c in _COLUMNS))
        return [AISMessage(*row, source=source) for row in rows]


class FleetEngine:
    """Vectorised simulation of an entire fleet.

    Typical use::

        engine = FleetEngine(FleetConfig(n_vessels=500, bbox=PAPER_EVAL_BBOX))
        batch = engine.run_collect()          # whole stream as arrays
        for tick_batch in engine.stream():    # or lazily, tick by tick
            ...
    """

    def __init__(self, config: FleetConfig) -> None:
        if config.n_vessels <= 0:
            raise ValueError("n_vessels must be positive")
        self.config = config
        self._rng = random.Random(config.seed)
        self._np_rng = np.random.default_rng(config.seed)
        self._build_fleet()

    # -- fleet construction --------------------------------------------------

    def _candidate_ports(self) -> list[Port]:
        if self.config.bbox is None:
            return list(PORTS)
        ports = ports_in_bbox(self.config.bbox)
        if len(ports) < 2:
            raise ValueError("bounding box contains fewer than two ports")
        return ports

    def _build_fleet(self) -> None:
        cfg = self.config
        n = cfg.n_vessels
        self._build_routes()
        counts = np.diff(self._wp_offsets)

        progress = self._np_rng.uniform(0.05, 0.7, size=n)
        start_idx = (progress * (counts - 1)).astype(np.int64)
        start_idx = np.minimum(start_idx, counts - 2)
        self._wp_idx = start_idx + 1
        abs_start = self._wp_offsets[:-1] + start_idx
        self.lat = self._wp_lat[abs_start].copy()
        self.lon = self._wp_lon[abs_start].copy()
        self._counts = counts

        self.mmsi = cfg.base_mmsi + np.arange(n, dtype=np.int64)
        self.cruise_kn = np.array([s.cruise_speed_kn for s in self.statics])
        self.turn_rate = np.array([s.max_turn_rate_deg_s for s in self.statics])
        self.speed_kn = self.cruise_kn.copy()
        tgt = self._wp_offsets[:-1] + self._wp_idx
        self.heading = initial_bearing_deg(self.lat, self.lon, self._wp_lat[tgt], self._wp_lon[tgt])
        self.active = np.ones(n, dtype=bool)
        self.start_t = (
            self._np_rng.uniform(0.0, cfg.start_window_s, size=n)
            if cfg.start_window_s > 0
            else np.zeros(n)
        )
        self.next_report_t = self.start_t.copy()
        self.satellite = self._np_rng.random(n) < cfg.satellite_fraction
        # Current/leeway drift velocity (east, north) per vessel, m/s.
        self.drift_e = self._np_rng.normal(0.0, cfg.drift_sd_mps, size=n)
        self.drift_n = self._np_rng.normal(0.0, cfg.drift_sd_mps, size=n)

    def _build_routes(self) -> None:
        """Draw each vessel's statics, port pair and voyage modes, in that
        order, then lay out every route in one pass as the flat ragged
        waypoint arrays ``_wp_lat``, ``_wp_lon`` and ``_wp_offsets``."""
        cfg = self.config
        ports = self._candidate_ports()
        weights = [p.weight for p in ports]
        self.statics: list[VesselStatics] = []
        origins, destinations, voyage = [], [], []
        for i in range(cfg.n_vessels):
            self.statics.append(random_statics(self._rng, cfg.base_mmsi + i))
            origin, dest = self._rng.choices(ports, weights=weights, k=2)
            while dest.name == origin.name:
                dest = self._rng.choices(ports, weights=weights, k=1)[0]
            origins.append(origin)
            destinations.append(dest)
            voyage.append(voyage_modes(self._rng))

        gc_km = np.array(list(map(port_distance_m, origins, destinations))) / 1_000.0
        # Curvature amplitudes scale with route length so short hops do
        # not loop wildly while ocean passages keep realistic sweeps.
        self._wp_lat, self._wp_lon, self._wp_offsets = route_waypoints(
            origins,
            destinations,
            voyage,
            np.clip(gc_km / cfg.waypoint_spacing_km, 8, 96).astype(np.int64),
            np.minimum(25_000.0, gc_km * 1_000.0 * 0.05),
            np.minimum(6_000.0, gc_km * 1_000.0 * 0.015),
        )

    # -- stepping ------------------------------------------------------------

    def _step(self, t: float) -> None:
        cfg = self.config
        dt = cfg.tick_s
        live = self.active & (self.start_t <= t)
        if not live.any():
            return
        tgt = self._wp_offsets[:-1] + np.minimum(self._wp_idx, self._counts - 1)
        tlat, tlon = self._wp_lat[tgt], self._wp_lon[tgt]
        dist = haversine_m(self.lat, self.lon, tlat, tlon)

        capture = np.maximum(300.0, self.speed_kn * KNOTS_TO_MPS * dt * 2.0)
        arrived = live & (dist < capture)
        if arrived.any():
            self._wp_idx[arrived] += 1
            done = arrived & (self._wp_idx >= self._counts)
            if done.any():
                self.active[done] = False
                self.speed_kn[done] = 0.0
                live = live & ~done
            tgt = self._wp_offsets[:-1] + np.minimum(self._wp_idx, self._counts - 1)
            tlat, tlon = self._wp_lat[tgt], self._wp_lon[tgt]

        desired = initial_bearing_deg(self.lat, self.lon, tlat, tlon)
        diff = (desired - self.heading + 180.0) % 360.0 - 180.0
        max_turn = self.turn_rate * dt
        turn = np.clip(diff, -max_turn, max_turn)
        wobble = self._np_rng.normal(0.0, cfg.heading_wobble * np.sqrt(dt), size=self.heading.shape)
        self.heading = np.where(live, (self.heading + turn + wobble) % 360.0, self.heading)

        pull = 0.02 * (self.cruise_kn - self.speed_kn)
        noise = self._np_rng.normal(0.0, 0.06 * np.sqrt(dt), size=self.speed_kn.shape)
        self.speed_kn = np.where(
            live, np.maximum(0.5, self.speed_kn + pull * dt + noise), self.speed_kn
        )

        new_lat, new_lon = destination_point(
            self.lat, self.lon, self.heading, self.speed_kn * KNOTS_TO_MPS * dt
        )
        # OU update of the drift velocity, then apply its displacement.
        if cfg.drift_sd_mps > 0.0:
            decay = np.exp(-dt / cfg.drift_tau_s)
            kick = cfg.drift_sd_mps * np.sqrt(1.0 - decay**2)
            self.drift_e = self.drift_e * decay + self._np_rng.normal(
                0.0, kick, size=self.drift_e.shape
            )
            self.drift_n = self.drift_n * decay + self._np_rng.normal(
                0.0, kick, size=self.drift_n.shape
            )
            dnorth = self.drift_n * dt
            deast = self.drift_e * dt
            new_lat = new_lat + dnorth / METERS_PER_DEG_LAT
            new_lon = new_lon + deast / (
                METERS_PER_DEG_LAT * np.maximum(np.cos(np.radians(new_lat)), 0.05)
            )
        self.lat = np.where(live, new_lat, self.lat)
        self.lon = np.where(live, new_lon, self.lon)

    def _report(self, t: float) -> MessageBatch:
        cfg = self.config
        due = self.active & (self.start_t <= t) & (self.next_report_t <= t)
        # Satellite-pass gating: messages outside a pass window are lost but
        # the transponder still reschedules (it broadcast into the void).
        if due.any():
            speed = self.speed_kn
            interval = np.where(speed > 23.0, 2.0, np.where(speed > 14.0, 6.0, 10.0))
            interval = np.maximum(interval, cfg.tick_s)
            self.next_report_t = np.where(due, t + interval, self.next_report_t)

        idx = np.flatnonzero(due)
        if idx.size == 0:
            return MessageBatch.empty()

        if t % cfg.satellite_pass_period_s > cfg.satellite_pass_duration_s:
            idx = idx[~self.satellite[idx]]
        idx = idx[self._np_rng.random(idx.size) <= cfg.coverage]
        if idx.size == 0:
            return MessageBatch.empty()

        jitter = self._np_rng.uniform(0.0, cfg.jitter_s, size=idx.size)
        sog = np.maximum(
            0.0, self.speed_kn[idx] + self._np_rng.normal(0.0, cfg.sog_noise_kn, size=idx.size)
        )
        cog = (
            self.heading[idx] + self._np_rng.normal(0.0, cfg.cog_noise_deg, size=idx.size)
        ) % 360.0
        return MessageBatch(self.mmsi[idx], t + jitter, self.lat[idx], self.lon[idx], sog, cog)

    # -- public API -----------------------------------------------------------

    def stream(self):
        """Yield one :class:`MessageBatch` per tick (possibly empty)."""
        t = 0.0
        while t <= self.config.duration_s:
            self._step(t)
            yield self._report(t)
            t += self.config.tick_s

    def run_collect(self) -> MessageBatch:
        """Run the full configured duration and return one time-sorted batch."""
        return MessageBatch.concat([b for b in self.stream() if len(b)]).sorted_by_time()
