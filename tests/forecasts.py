"""Forecast fixtures and the one way tests compare forecasts.

A :class:`RouteForecast` is its mark arrays and compares by identity, so a
test builds one with :func:`make_forecast` and compares values that hold
forecasts (a message, an envelope, a decoded state) through
:func:`comparable`, which compares each track bitwise.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Sequence

import numpy as np

from repro.geo.track import Position
from repro.models.base import RouteForecast


def make_forecast(
    mmsi: int,
    fixes: Sequence[tuple[float, float, float]],
    sog: float | None = None,
    cog: float | None = None,
) -> RouteForecast:
    """A forecast over ``fixes``, ``(t, lat, lon)`` rows, the first the
    anchor, which carries ``sog`` and ``cog``."""
    ts, lats, lons = np.array(fixes, dtype=np.float64).reshape(-1, 3).T.copy()
    t, lat, lon = fixes[0]
    return RouteForecast(mmsi, Position(t=t, lat=lat, lon=lon, sog=sog, cog=cog), ts, lats, lons)


def comparable(value: Any) -> Any:
    """``value`` as plain data that compares by value: a dataclass (a
    forecast included) becomes its type and fields, an ndarray its dtype,
    shape and bytes, so two tracks are equal only bit for bit."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value), tuple(comparable(getattr(value, f.name)) for f in fields(value)))
    if isinstance(value, (tuple, list)):
        return (type(value), tuple(comparable(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return (type(value), frozenset(comparable(item) for item in value))
    if isinstance(value, dict):
        return (dict, tuple((comparable(k), comparable(v)) for k, v in value.items()))
    return value
