"""The linear kinematic baseline.

Section 6.1: "a simple linear kinematic model which utilizes the last
reported AIS position, reported AIS speed (knots) and course (°) to predict
future vessel positions in the same time horizons". This is also the model
class that present VTMS/VTMIS systems rely on, per the paper's introduction
— which is why it is the comparison baseline for both Table 1 and Table 2.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ais.preprocessing import OUTPUT_INTERVAL_S, OUTPUT_STEPS
from repro.geo.constants import KNOTS_TO_MPS
from repro.geo.geodesy import destination_point
from repro.geo.track import Position
from repro.models.base import RouteForecast, forecasts_from_marks


class LinearKinematicModel:
    """Dead reckoning from the last reported position, SOG and COG."""

    #: A single fix suffices — the model only uses the last report.
    min_history = 1
    #: No displacement window: pooled inference batches anchors only.
    window_size = 0

    def forecast(self, mmsi: int, history: Sequence[Position]) -> RouteForecast:
        if not history:
            raise ValueError("linear kinematic model needs at least one fix")
        return self.forecast_batch([mmsi], None, [history[-1]])[0]

    def forecast_batch(
        self, mmsis: Sequence[int], windows, anchors: Sequence[Position]
    ) -> list[RouteForecast]:
        """Vectorised dead reckoning over many vessels' latest fixes.

        ``windows`` is accepted for forecaster-protocol parity and ignored.
        The scalar :meth:`forecast` delegates here, so per-vessel and
        pooled fleet-wide forecasts are bitwise identical.
        """
        del windows
        for anchor in anchors:
            if anchor.sog is None or anchor.cog is None:
                raise ValueError("last fix must carry SOG and COG")
        lat0 = np.array([a.lat for a in anchors])
        lon0 = np.array([a.lon for a in anchors])
        cog = np.array([a.cog for a in anchors])
        speed_mps = np.array([a.sog for a in anchors]) * KNOTS_TO_MPS
        marks = np.empty((len(anchors), 2, OUTPUT_STEPS + 1))
        marks[:, 0, 0], marks[:, 1, 0] = lat0, lon0
        for k in range(1, OUTPUT_STEPS + 1):
            marks[:, 0, k], marks[:, 1, k] = destination_point(
                lat0, lon0, cog, speed_mps * OUTPUT_INTERVAL_S * k
            )
        return forecasts_from_marks(mmsis, anchors, marks)

    def predict_positions(self, anchor: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised dead reckoning over segment anchors.

        ``x`` (the displacement history) is accepted for interface parity
        and ignored — the kinematic model sees only the last report.
        """
        del x
        lat0, lon0 = anchor[:, 1], anchor[:, 2]
        sog, cog = anchor[:, 3], anchor[:, 4]
        speed_mps = sog * KNOTS_TO_MPS
        lats = np.empty((anchor.shape[0], OUTPUT_STEPS))
        lons = np.empty_like(lats)
        for k in range(1, OUTPUT_STEPS + 1):
            lat_k, lon_k = destination_point(lat0, lon0, cog, speed_mps * OUTPUT_INTERVAL_S * k)
            lats[:, k - 1] = lat_k
            lons[:, k - 1] = lon_k
        return lats, lons
