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
from collections import Counter
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
    predicted positions lands in its forecast (cell, window) bucket. Only
    the latest forecast per vessel counts, so ``submit`` just keeps it and
    the raster is built when read, with one :func:`latlng_to_cells` call.
    """

    def __init__(self, resolution: int = FLOW_RESOLUTION, window_s: float = FLOW_WINDOW_S) -> None:
        self.resolution = resolution
        self.window_s = window_s
        #: mmsi -> its latest forecast.
        self._latest: dict[int, RouteForecast] = {}

    def submit(self, *forecasts: RouteForecast) -> None:
        """Submit ``forecasts`` in order: each replaces its vessel's last."""
        for forecast in forecasts:
            self._latest[forecast.mmsi] = forecast

    def copy(self) -> "IndirectVTFF":
        """A snapshot that later submits leave unchanged."""
        snapshot = IndirectVTFF(self.resolution, self.window_s)
        snapshot._latest = dict(self._latest)
        return snapshot

    def _marks(self, window: int | None = None) -> tuple[list, list, list]:
        """``(cells, windows, mmsis)`` of the latest forecasts' predicted
        marks, only those in ``window`` unless it is ``None``."""
        forecasts = self._latest.values()
        ts = np.concatenate([f.ts[1:] for f in forecasts] or [np.empty(0)])
        lats = np.concatenate([f.lats[1:] for f in forecasts] or [np.empty(0)])
        lons = np.concatenate([f.lons[1:] for f in forecasts] or [np.empty(0)])
        mmsis = np.repeat([f.mmsi for f in forecasts], [f.ts.size - 1 for f in forecasts])
        windows = ts // self.window_s
        keep = slice(None) if window is None else windows == window
        cells = latlng_to_cells(lats[keep], lons[keep], self.resolution)
        return cells.tolist(), windows[keep].astype(np.int64).tolist(), mmsis[keep].tolist()

    def predicted_flow(self, window: int) -> dict[int, int]:
        """Forecast ``cell -> vessel count`` for a future window, in
        ascending cell order."""
        cells, _, mmsis = self._marks(window)
        return dict(sorted(Counter(cell for cell, _ in set(zip(cells, mmsis))).items()))

    def predicted_level(self, cell: int, window: int) -> TrafficLevel:
        return FlowGrid.classify(self.predicted_flow(window).get(cell, 0))

    @property
    def grid(self) -> FlowGrid:
        """The whole raster, built from the latest forecasts when read."""
        grid = FlowGrid(resolution=self.resolution, window_s=self.window_s)
        for cell, window, mmsi in zip(*self._marks()):
            grid._vessels.setdefault((cell, window), set()).add(mmsi)
        return grid


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
