"""Common forecaster interface shared by the baseline and the S-VRF model.

Both short-term models answer the same question: *given a vessel's recent
history, where will it be at the six 5-minute marks of the next half hour?*
Event functions (collision forecasting, VTFF) are written against this
interface so either model can back them — exactly the substitution the
paper's Table 2 evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.ais.preprocessing import OUTPUT_INTERVAL_S, OUTPUT_STEPS
from repro.geo.track import Position

#: Offsets of the anchor and the six marks from the anchor time.
_MARK_OFFSETS_S = OUTPUT_INTERVAL_S * np.arange(OUTPUT_STEPS + 1)


@dataclass(frozen=True, eq=False)
class RouteForecast:
    """A short-term route forecast: the anchor fix plus the predicted marks.

    The track is three float64 arrays ``ts``, ``lats`` and ``lons`` of
    ``OUTPUT_STEPS + 1`` entries: the present position at index 0 followed
    by the six 5-minute predictions — the "7 positions (1 present position
    and 6 position predictions)" of Section 5.2. ``anchor`` is the fix at
    index 0, SOG and COG included. A forecast owns its arrays. Equality and
    hashing are identity: nothing compares forecasts by value.
    """

    mmsi: int
    anchor: Position
    ts: np.ndarray
    lats: np.ndarray
    lons: np.ndarray

    def horizon_s(self) -> float:
        return float(self.ts[-1] - self.ts[0])


def forecasts_from_marks(
    mmsis: Sequence[int], anchors: Sequence[Position], marks: np.ndarray
) -> list[RouteForecast]:
    """One :class:`RouteForecast` per row of ``marks``, the ``(n, 2,
    OUTPUT_STEPS + 1)`` latitudes and longitudes of a batch, column 0 each
    row's anchor. The mark times are computed here for the whole batch."""
    ts = np.array([anchor.t for anchor in anchors], dtype=np.float64)[:, None] + _MARK_OFFSETS_S
    tracks = np.concatenate([ts[:, None, :], marks], axis=1)
    # A row copy per forecast, so a forecast kept alive does not pin its batch.
    return [
        RouteForecast(mmsi, anchor, *track.copy())
        for mmsi, anchor, track in zip(mmsis, anchors, tracks)
    ]


def stage_track(slot: np.ndarray, track: np.ndarray) -> None:
    """Copy the last ``len(slot)`` ``(t, lat, lon)`` rows of ``track``
    (oldest first) into ``slot``, led by copies of the oldest fix when the
    track is shorter: its leading displacements then read ``+0.0``."""
    track = track[-len(slot) :]
    slot[: -len(track)] = track[0]
    slot[-len(track) :] = track


class RouteForecaster(Protocol):
    """Anything that can produce a short-term route forecast. The platform
    forecasts only through :meth:`forecast_batch`, pooled per node."""

    @property
    def min_history(self) -> int:
        """Fixes a full (unpadded) forecast needs."""
        ...

    @property
    def window_size(self) -> int:
        """Displacement steps per input window row; 0 for a forecaster that
        reads the anchor fix alone. A windowed forecaster also provides
        ``make_windows(tracks)`` over ``(n, window_size + 1, 3)`` tracks
        staged by :func:`stage_track`."""
        ...

    def forecast(self, mmsi: int, history: Sequence[Position]) -> RouteForecast:
        """Forecast from a vessel's recent downsampled fixes.

        ``history`` is ordered oldest-first; implementations raise
        :class:`ValueError` below :attr:`min_history`.
        """
        ...

    def forecast_batch(
        self, mmsis: Sequence[int], windows: np.ndarray | None, anchors: Sequence[Position]
    ) -> list[RouteForecast]:
        """Forecasts for many vessels in one pass: ``windows`` stacks one
        ``(window_size, 3)`` row per vessel (``None`` when ``window_size`` is
        0), ``anchors`` holds each one's latest fix. Row ``i`` is bitwise
        :meth:`forecast` for that vessel alone."""
        ...

    def predict_positions(self, anchor: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised batch form over preprocessed segments.

        ``anchor`` is the ``(n, 5)`` anchor-state array and ``x`` the
        ``(n, 20, 3)`` input tensor of a
        :class:`~repro.ais.preprocessing.SegmentDataset`. Returns
        ``(lat, lon)`` arrays of shape ``(n, OUTPUT_STEPS)``.
        """
        ...


def forecast_mark_times(t0: float) -> list[float]:
    """The six forecast timestamps for an anchor at ``t0``."""
    return [t0 + OUTPUT_INTERVAL_S * k for k in range(1, OUTPUT_STEPS + 1)]
