"""Automated rerouting for collision avoidance.

Another of the paper's named future assets: "the automated rerouting for
vessel collision avoidance" (Section 7). Given a forecast collision and the
own-ship state, the planner evaluates COLREGs-flavoured course alterations
(starboard first, in increasing steps) and speed reductions, dead-reckons
each candidate against the intruder's forecast trajectory, and returns the
smallest manoeuvre that clears the separation threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.constants import KNOTS_TO_MPS
from repro.geo.geodesy import destination_point
from repro.models.base import RouteForecast

#: Course alterations evaluated, degrees; positive = starboard. COLREGs
#: rule 8 prefers early, substantial starboard action, so starboard
#: options come first at each magnitude.
_COURSE_OPTIONS_DEG = (15.0, -15.0, 30.0, -30.0, 45.0, -45.0, 60.0, -60.0)
#: Speed factors evaluated after course changes fail.
_SPEED_OPTIONS = (0.7, 0.5)


@dataclass(frozen=True)
class AvoidanceManeuver:
    """A recommended manoeuvre and its predicted outcome."""

    mmsi: int
    course_change_deg: float  #: 0 for pure speed reductions
    speed_factor: float  #: 1.0 for pure course changes
    predicted_min_separation_m: float

    @property
    def is_starboard(self) -> bool:
        return self.course_change_deg > 0

    def describe(self) -> str:
        parts = []
        if self.course_change_deg:
            side = "starboard" if self.is_starboard else "port"
            parts.append(f"alter course {abs(self.course_change_deg):.0f} deg to {side}")
        if self.speed_factor != 1.0:
            parts.append(f"reduce speed to {self.speed_factor:.0%}")
        action = " and ".join(parts) if parts else "stand on"
        return f"{action} (predicted minimum separation {self.predicted_min_separation_m:.0f} m)"


def _dead_reckon(
    lat: float, lon: float, course: float, speed_mps: float, times: np.ndarray, t0: float
) -> tuple[np.ndarray, np.ndarray]:
    lats, lons = [], []
    for t in times:
        la, lo = destination_point(lat, lon, course, speed_mps * (t - t0))
        lats.append(la)
        lons.append(lo)
    return np.asarray(lats), np.asarray(lons)


def _min_separation_m(own_lat, own_lon, other_lat, other_lon) -> float:
    mean_lat = np.radians((own_lat.mean() + other_lat.mean()) / 2.0)
    kx = 111_194.9266 * float(np.cos(mean_lat))
    ky = 111_194.9266
    d = np.hypot((own_lon - other_lon) * kx, (own_lat - other_lat) * ky)
    return float(d.min())


def plan_avoidance(
    own: RouteForecast,
    intruder: RouteForecast,
    own_sog_kn: float,
    own_cog_deg: float,
    separation_m: float = 1_000.0,
    step_s: float = 30.0,
) -> AvoidanceManeuver | None:
    """The smallest manoeuvre for ``own`` that keeps it at least
    ``separation_m`` from the intruder's forecast trajectory.

    Returns ``None`` when no evaluated manoeuvre achieves the separation
    (the conning officer's problem, not the algorithm's). If the current
    course already clears the threshold a zero-change "stand on"
    recommendation is returned.
    """
    if own_sog_kn < 0:
        raise ValueError("speed must be non-negative")
    anchor = own.anchor
    horizon = intruder.ts[-1]
    times = np.arange(anchor.t, horizon + step_s / 2.0, step_s)
    ila = np.interp(times, intruder.ts, intruder.lats)
    ilo = np.interp(times, intruder.ts, intruder.lons)
    speed_mps = own_sog_kn * KNOTS_TO_MPS

    def evaluate(course_change: float, speed_factor: float) -> float:
        la, lo = _dead_reckon(
            anchor.lat,
            anchor.lon,
            (own_cog_deg + course_change) % 360.0,
            speed_mps * speed_factor,
            times,
            anchor.t,
        )
        return _min_separation_m(la, lo, ila, ilo)

    current = evaluate(0.0, 1.0)
    if current >= separation_m:
        return AvoidanceManeuver(
            mmsi=own.mmsi,
            course_change_deg=0.0,
            speed_factor=1.0,
            predicted_min_separation_m=current,
        )
    for change in _COURSE_OPTIONS_DEG:
        sep = evaluate(change, 1.0)
        if sep >= separation_m:
            return AvoidanceManeuver(
                mmsi=own.mmsi,
                course_change_deg=change,
                speed_factor=1.0,
                predicted_min_separation_m=sep,
            )
    for factor in _SPEED_OPTIONS:
        for change in (0.0,) + _COURSE_OPTIONS_DEG:
            sep = evaluate(change, factor)
            if sep >= separation_m:
                return AvoidanceManeuver(
                    mmsi=own.mmsi,
                    course_change_deg=change,
                    speed_factor=factor,
                    predicted_min_separation_m=sep,
                )
    return None
