"""Vessel Traffic Flow Forecasting (VTFF, Section 5.1).

The objective is to predict the number of vessels per spatial cell and time
window. Two strategies from the paper's reference [17] are implemented:

* **Indirect** (:class:`IndirectVTFF`) — the strategy the platform deploys:
  S-VRF forecast trajectories are rasterised onto the spatiotemporal H3
  grid; the vessel count per (cell, window) is the forecast flow. "The
  predicted locations by the S-VRF model are allocated into a spatiotemporal
  grid ... The resulting vessel counts represent the vessel traffic flow."
* **Direct** (:class:`DirectVTFF`) — the comparison baseline: per-cell flow
  history is extrapolated as a sequence-forecasting problem (ridge-regular-
  ised autoregression with a naive fallback). [17] found the indirect
  strategy ~1.5x more accurate; the ablation benchmark reproduces that
  comparison.

:class:`FlowGrid` is the shared raster: distinct-vessel counts per
``(cell, window)`` with the LOW/MEDIUM/HIGH heat classification of
Figure 4d.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.hexgrid import latlng_to_cell, latlng_to_cells
from repro.models.base import RouteForecast

#: Default hex resolution for flow cells (~3.2 km edges).
FLOW_RESOLUTION = 6
#: Default time-window length: the S-VRF sampling interval.
FLOW_WINDOW_S = 300.0


class TrafficLevel(enum.Enum):
    """Heat classes of the Figure 4d visualisation."""

    LOW = "low"  # dark green
    MEDIUM = "medium"  # light green
    HIGH = "high"  # red


@dataclass
class FlowGrid:
    """Distinct-vessel counts on the (cell, time-window) raster."""

    resolution: int = FLOW_RESOLUTION
    window_s: float = FLOW_WINDOW_S
    #: (cell, window index) -> set of MMSIs seen there.
    _vessels: dict[tuple[int, int], set[int]] = field(default_factory=dict)

    def window_of(self, t: float) -> int:
        return int(t // self.window_s)

    def add(self, mmsi: int, t: float, lat: float, lon: float) -> None:
        cell = latlng_to_cell(lat, lon, self.resolution)
        key = (cell, self.window_of(t))
        self._vessels.setdefault(key, set()).add(mmsi)

    def count(self, cell: int, window: int) -> int:
        return len(self._vessels.get((cell, window), ()))

    def window_counts(self, window: int) -> dict[int, int]:
        """``cell -> vessel count`` for one time window (active cells only,
        matching the UI's 'only active cells are visible')."""
        return {cell: len(v) for (cell, w), v in self._vessels.items() if w == window}

    def active_cells(self) -> set[int]:
        return {cell for cell, _ in self._vessels}

    def windows(self) -> list[int]:
        return sorted({w for _, w in self._vessels})

    def series(self, cell: int, windows: list[int]) -> np.ndarray:
        """Flow history of one cell over a window range."""
        return np.array([self.count(cell, w) for w in windows], dtype=float)

    @staticmethod
    def classify(count: int, low_max: int = 2, medium_max: int = 5) -> TrafficLevel:
        """Heat class of a vessel count (thresholds per deployment)."""
        if count <= low_max:
            return TrafficLevel.LOW
        if count <= medium_max:
            return TrafficLevel.MEDIUM
        return TrafficLevel.HIGH


class IndirectVTFF:
    """Forecast traffic flow by rasterising route forecasts.

    Feed every vessel's latest :class:`RouteForecast`; each of the six
    predicted positions lands in its forecast (cell, window) bucket. Since
    only the latest forecast per vessel should count, re-submitting a vessel
    replaces its previous contribution.
    """

    def __init__(self, resolution: int = FLOW_RESOLUTION, window_s: float = FLOW_WINDOW_S) -> None:
        self.resolution = resolution
        self.window_s = window_s
        self._grid = FlowGrid(resolution=resolution, window_s=window_s)
        #: mmsi -> keys contributed by its current forecast.
        self._contrib: dict[int, list[tuple[int, int]]] = {}

    def submit(self, *forecasts: RouteForecast) -> None:
        """Submit ``forecasts`` in order, rasterising all their predicted
        positions with one :func:`latlng_to_cells` call."""
        lats = np.concatenate([forecast.lats[1:] for forecast in forecasts] or [np.empty(0)])
        lons = np.concatenate([forecast.lons[1:] for forecast in forecasts] or [np.empty(0)])
        cells = iter(latlng_to_cells(lats, lons, self.resolution).tolist())
        grid = self._grid._vessels
        window_of = self._grid.window_of
        for forecast in forecasts:
            mmsi = forecast.mmsi
            for key in self._contrib.pop(mmsi, []):
                vessels = grid.get(key)
                if vessels is not None:
                    vessels.discard(mmsi)
                    if not vessels:
                        del grid[key]
            keys = [(next(cells), window_of(t)) for t in forecast.ts[1:].tolist()]
            for key in keys:
                grid.setdefault(key, set()).add(mmsi)
            self._contrib[mmsi] = keys

    def predicted_flow(self, window: int) -> dict[int, int]:
        """Forecast ``cell -> vessel count`` for a future window."""
        return self._grid.window_counts(window)

    def predicted_level(self, cell: int, window: int) -> TrafficLevel:
        return self._grid.classify(self._grid.count(cell, window))

    @property
    def grid(self) -> FlowGrid:
        return self._grid


class DirectVTFF:
    """Per-cell autoregressive flow forecasting (the direct baseline).

    Fits one ridge-regularised AR(``order``) model per cell on its flow
    history; cells with insufficient history fall back to persistence
    (repeat the last observed count).
    """

    def __init__(self, order: int = 6, ridge: float = 1.0) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.ridge = ridge
        self._coef: dict[int, np.ndarray] = {}
        self._history: dict[int, np.ndarray] = {}

    def fit(self, histories: dict[int, np.ndarray]) -> "DirectVTFF":
        """``histories`` maps cell -> chronological flow counts."""
        for cell, series in histories.items():
            series = np.asarray(series, dtype=float)
            self._history[cell] = series
            n = series.size - self.order
            if n < max(2 * self.order, 4):
                continue  # persistence fallback
            x = np.stack([series[i : i + self.order] for i in range(n)])
            y = series[self.order :]
            xb = np.hstack([x, np.ones((n, 1))])
            a = xb.T @ xb + self.ridge * np.eye(self.order + 1)
            self._coef[cell] = np.linalg.solve(a, xb.T @ y)
        return self

    def predict(self, cell: int, steps: int = 1) -> np.ndarray:
        """Forecast the next ``steps`` windows for one cell."""
        history = self._history.get(cell)
        if history is None or history.size == 0:
            return np.zeros(steps)
        coef = self._coef.get(cell)
        if coef is None:
            return np.full(steps, history[-1])
        window = list(history[-self.order :])
        while len(window) < self.order:
            window.insert(0, 0.0)
        out = []
        for _ in range(steps):
            nxt = float(np.dot(coef[:-1], window) + coef[-1])
            nxt = max(nxt, 0.0)
            out.append(nxt)
            window = window[1:] + [nxt]
        return np.asarray(out)
