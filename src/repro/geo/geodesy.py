"""Great-circle geodesy on the spherical Earth.

These functions back every distance, bearing and dead-reckoning computation
in the simulator, the forecasting models and the event-detection functions.
They accept scalars or numpy arrays (broadcasting applies) and always work
in degrees for angles and metres for distances.

A scalar call and the same point inside an array can differ in the last
bit: a numpy scalar's ``** 2`` calls libm ``pow``, while an array squares
by multiplying (174 of 200,000 random ``haversine_m`` inputs differ). A
caller that must reproduce a stream therefore keeps one form.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geo.constants import EARTH_RADIUS_M


def normalize_lon(lon):
    """Wrap a longitude (or array of longitudes) into ``[-180, 180)``."""
    return (np.asarray(lon) + 180.0) % 360.0 - 180.0


def wrap_bearing_deg(bearing):
    """Wrap a bearing (or array of bearings) into ``[0, 360)`` degrees."""
    return np.asarray(bearing) % 360.0


def haversine_m(lat1, lon1, lat2, lon2):
    """Great-circle distance in metres between two points.

    Accepts scalars or broadcastable numpy arrays. Returns a float for scalar
    input, an ``np.ndarray`` otherwise.
    """
    lat1r, lon1r, lat2r, lon2r = (np.radians(np.asarray(v, dtype=float))
                                  for v in (lat1, lon1, lat2, lon2))
    dlat = lat2r - lat1r
    dlon = lon2r - lon1r
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1r) * np.cos(lat2r) * np.sin(dlon / 2.0) ** 2
    d = 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    if np.ndim(d) == 0:
        return float(d)
    return d


def equirectangular_distance_m(lat1, lon1, lat2, lon2):
    """Fast flat-Earth distance approximation, accurate for short legs.

    Used in hot paths (collision checks between nearby forecast points) where
    separations are a few kilometres at most and the haversine's trigonometry
    would dominate the cost.
    """
    lat1r, lon1r, lat2r, lon2r = (np.radians(np.asarray(v, dtype=float))
                                  for v in (lat1, lon1, lat2, lon2))
    x = (lon2r - lon1r) * np.cos((lat1r + lat2r) / 2.0)
    y = lat2r - lat1r
    d = EARTH_RADIUS_M * np.sqrt(x * x + y * y)
    if np.ndim(d) == 0:
        return float(d)
    return d


def initial_bearing_deg(lat1, lon1, lat2, lon2):
    """Initial great-circle bearing from point 1 to point 2, in ``[0, 360)``."""
    lat1r, lon1r, lat2r, lon2r = (np.radians(np.asarray(v, dtype=float))
                                  for v in (lat1, lon1, lat2, lon2))
    dlon = lon2r - lon1r
    y = np.sin(dlon) * np.cos(lat2r)
    x = np.cos(lat1r) * np.sin(lat2r) - np.sin(lat1r) * np.cos(lat2r) * np.cos(dlon)
    brg = np.degrees(np.arctan2(y, x)) % 360.0
    if np.ndim(brg) == 0:
        return float(brg)
    return brg


#: Alias matching common maritime terminology ("bearing to waypoint").
bearing_deg = initial_bearing_deg


def destination_point(lat, lon, bearing, distance_m):
    """Dead-reckon: the point reached from ``(lat, lon)`` on ``bearing``
    after travelling ``distance_m`` metres along the great circle.

    Returns ``(lat2, lon2)`` as floats for scalar input or arrays otherwise.
    This is the linear-kinematic projection primitive used both by the
    simulator and by the paper's baseline forecasting model.
    """
    latr = np.radians(np.asarray(lat, dtype=float))
    lonr = np.radians(np.asarray(lon, dtype=float))
    brgr = np.radians(np.asarray(bearing, dtype=float))
    delta = np.asarray(distance_m, dtype=float) / EARTH_RADIUS_M

    lat2 = np.arcsin(np.sin(latr) * np.cos(delta) +
                     np.cos(latr) * np.sin(delta) * np.cos(brgr))
    lon2 = lonr + np.arctan2(np.sin(brgr) * np.sin(delta) * np.cos(latr),
                             np.cos(delta) - np.sin(latr) * np.sin(lat2))
    lat2d = np.degrees(lat2)
    lon2d = normalize_lon(np.degrees(lon2))
    if np.ndim(lat2d) == 0:
        return float(lat2d), float(lon2d)
    return lat2d, lon2d


def cross_track_distance_m(lat, lon, lat1, lon1, lat2, lon2):
    """Signed distance in metres from a point to the great circle through
    points 1 and 2 (negative = left of the track).

    Used by the EnvClus* clustering to measure how far a historical position
    deviates from a candidate pathway segment.
    """
    d13 = haversine_m(lat1, lon1, lat, lon) / EARTH_RADIUS_M
    theta13 = np.radians(initial_bearing_deg(lat1, lon1, lat, lon))
    theta12 = np.radians(initial_bearing_deg(lat1, lon1, lat2, lon2))
    xt = np.arcsin(np.sin(d13) * np.sin(theta13 - theta12)) * EARTH_RADIUS_M
    if np.ndim(xt) == 0:
        return float(xt)
    return xt


def midpoint(lat1, lon1, lat2, lon2):
    """Great-circle midpoint of two points, returned as ``(lat, lon)``."""
    lat1r, lon1r, lat2r, lon2r = (math.radians(float(v))
                                  for v in (lat1, lon1, lat2, lon2))
    dlon = lon2r - lon1r
    bx = math.cos(lat2r) * math.cos(dlon)
    by = math.cos(lat2r) * math.sin(dlon)
    latm = math.atan2(math.sin(lat1r) + math.sin(lat2r),
                      math.sqrt((math.cos(lat1r) + bx) ** 2 + by ** 2))
    lonm = lon1r + math.atan2(by, math.cos(lat1r) + bx)
    return math.degrees(latm), float(normalize_lon(math.degrees(lonm)))
