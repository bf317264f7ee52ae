"""Preallocated per-vessel history storage.

Each vessel actor keeps its recent downsampled track in a
:class:`HistoryRing` — ``(t, lat, lon, sog, cog)`` float64 rows with a
sliding start index — instead of a deque of ``Position`` objects.
The forecast hot path hands the live ``(t, lat, lon)`` rows to
:class:`~repro.platform.forecast_service.ForecastService` as one contiguous
view, with no per-call ``list(...)`` / ``np.array`` rebuilds, which is what
lets the pooled model be fed cheaply.

Missing SOG/COG values are stored as NaN and surfaced back as ``None``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geo.track import Position


class HistoryRing:
    """A bounded track of the last ``capacity`` fixes, oldest first.

    Backed by a ``2 * capacity``-row buffer compacted on wrap, so appends
    are O(1) amortised and the live window is always one contiguous slice
    (``numpy`` views, never copies).
    """

    __slots__ = ("capacity", "_buf", "_start", "_end")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("history ring needs capacity >= 1")
        self.capacity = capacity
        self._buf = np.empty((2 * capacity, 5))
        self._start = 0
        self._end = 0

    def __len__(self) -> int:
        return self._end - self._start

    def append(
        self, t: float, lat: float, lon: float, sog: float | None, cog: float | None
    ) -> None:
        if self._end == self._buf.shape[0]:
            # Compact the newest `capacity` rows back to the front.
            keep = self.capacity
            self._buf[:keep] = self._buf[self._end - keep : self._end]
            self._start, self._end = 0, keep
        row = self._buf[self._end]
        row[0] = t
        row[1] = lat
        row[2] = lon
        row[3] = math.nan if sog is None else sog
        row[4] = math.nan if cog is None else cog
        self._end += 1
        if self._end - self._start > self.capacity:
            self._start += 1

    @property
    def last_t(self) -> float:
        """Timestamp of the newest fix (``-inf`` when empty)."""
        if self._end == self._start:
            return float("-inf")
        return float(self._buf[self._end - 1, 0])

    def track(self) -> np.ndarray:
        """View of the live ``(t, lat, lon)`` rows, oldest first."""
        return self._buf[self._start : self._end, :3]

    # -- Position interop (checkpoint export/restore, tests) ------------------

    def positions(self) -> list[Position]:
        out = []
        for i in range(self._start, self._end):
            t, lat, lon, sog, cog = self._buf[i]
            out.append(
                Position(
                    t=float(t),
                    lat=float(lat),
                    lon=float(lon),
                    sog=None if math.isnan(sog) else float(sog),
                    cog=None if math.isnan(cog) else float(cog),
                )
            )
        return out

    @classmethod
    def from_positions(cls, positions, capacity: int) -> "HistoryRing":
        ring = cls(capacity)
        for p in positions:
            ring.append(p.t, p.lat, p.lon, p.sog, p.cog)
        return ring
