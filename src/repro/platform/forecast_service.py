"""Pooled fleet-wide forecast inference: the one way a forecast is made.

The paper mounts the S-VRF model "only once in memory" per node. Run once
per vessel per kept fix, it would be a batch-size-1 forward pass whose
BLAS calls dominate the single-node hot path. :class:`ForecastService`
turns those per-vessel requests into fleet-wide micro-batches, exactly the
way the writer batches KV operations:

* vessel actors :meth:`submit` their recent track + anchor, staged into
  one preallocated array,
* requests pool per node, every request keeping its own batch row (a
  vessel with two kept fixes in one linger window gets both forecasts, in
  order),
* the batch executes after ``forecast_batch_max`` pending vessels or a
  ``forecast_linger_s`` virtual-time linger — **one** ``make_windows``
  over the staged tracks and **one** ``predict_transitions((n,
  INPUT_STEPS, 3))`` pass over the whole fleet,
* the flush (:func:`~repro.platform.vessel_actor.share_forecasts`) shares
  each produced forecast with its collision cells *in row order*
  (per-vessel mailboxes could not guarantee the cross-vessel ordering
  collision pairing is sensitive to), notifying each requesting vessel
  with a :class:`~repro.platform.messages.ForecastReady` message right
  after its row — preserving the actor model's one-writer-per-state
  discipline for the twin's own state — and hands the flow actor the whole
  flush in one message.

A request fails alone: a row the forecaster raises on, or one that lands
off the globe, resolves to ``None`` and counts in ``forecasts_failed``.
Batching never changes a result: each row of ``forecast_batch`` is bitwise
the row batched alone and the scalar ``forecast`` (see ``Model.predict``),
which the forecaster-level property tests assert.

The service is a plain shared object (like the forecaster itself), not an
actor: submission is a method call from inside the vessel actor's receive,
so pooling adds no extra envelope per request. When a batch executes is
the shared :class:`~repro.platform.batching.MicroBatcher` discipline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.geo.track import Position
from repro.models.base import stage_track
from repro.platform.batching import MicroBatcher
from repro.platform.messages import ForecastReady
from repro.platform.vessel_actor import share_forecasts

if TYPE_CHECKING:
    from repro.platform.pipeline import PlatformWiring


class ForecastService:
    """Per-node pooling of vessel forecast requests into batched passes."""

    def __init__(self, wiring: "PlatformWiring") -> None:
        self.wiring = wiring
        config = wiring.config
        self.batch_max = config.forecast_batch_max
        window_size = wiring.forecaster.window_size  # 0: anchors-only forecaster
        self._tracks = np.empty((self.batch_max, window_size + 1, 3)) if window_size else None
        self._mmsis: list[int] = []
        self._anchors: list[Position] = []
        self._submit_ts: list[float] = []
        self._batcher = MicroBatcher(
            wiring.system,
            self,
            lambda: len(self._mmsis),
            self._execute,
            max_size=self.batch_max,
            linger_s=config.forecast_linger_s,
            capacity_reason="max_batch",
            size_metric="forecast_batch_size",
            flushes_metric="forecast_flushes_total",
            latency_metric="forecast_latency_s",
        )
        self._batcher.spawn_timer("forecast-flush")
        self.requests_pooled = 0
        self.forecasts_failed = 0

    # -- submission -----------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self._mmsis)

    @property
    def batches_executed(self) -> int:
        return self._batcher.batches

    def submit(self, mmsi: int, track: np.ndarray, anchor: Position) -> None:
        """Queue one vessel's forecast request: ``track`` is its recent
        ``(t, lat, lon)`` rows, oldest first, staged by :func:`stage_track`.

        Called from inside the vessel actor's receive; the result comes
        back to the vessel as a :class:`ForecastReady` message after the
        pooled batch executes. Per-vessel replies preserve submission
        order (the flush fans out in row order, mailboxes are FIFO).
        """
        with self._batcher.lock:
            slot = len(self._mmsis)
            self._mmsis.append(mmsi)
            self._anchors.append(anchor)
            self._submit_ts.append(self.wiring.system.now)
            if self._tracks is not None:
                stage_track(self._tracks[slot], track)
            self.requests_pooled += 1
            self._batcher.added()

    # -- flushing -------------------------------------------------------------------

    def flush(self, reason: str = "explicit") -> int:
        """Execute the pending pooled batch; returns how many forecasts
        were produced (0 for an empty flush)."""
        return self._batcher.flush(reason)

    def _execute(self, n: int) -> float:
        mmsis, anchors, submit_ts = self._mmsis, self._anchors, self._submit_ts
        forecaster = self.wiring.forecaster
        windows = forecaster.make_windows(self._tracks[:n]) if self._tracks is not None else None
        forecasts = self._run_batch(mmsis, windows, anchors)
        self._mmsis, self._anchors, self._submit_ts = [], [], []
        router = self.wiring.vessel_router

        def reply(i: int) -> None:
            router.tell(mmsis[i], ForecastReady(forecast=forecasts[i], t_submitted=submit_ts[i]))

        # One outbox scope: a peer's shares, replies and alerts of this
        # flush leave as one frame (a flush barrier runs outside a drain).
        with self.wiring.outbox():
            self.forecasts_failed += share_forecasts(self.wiring, forecasts, after_row=reply)
        return submit_ts[0]

    def _run_batch(self, mmsis, windows, anchors) -> list:
        forecaster = self.wiring.forecaster
        try:
            return forecaster.forecast_batch(mmsis, windows, anchors)
        except Exception:
            # One bad request must not sink the fleet's batch: retry each
            # row alone; rows that still fail resolve to None (the vessel
            # keeps its previous forecast and unblocks its state update).
            out = []
            for i, (mmsi, anchor) in enumerate(zip(mmsis, anchors)):
                row = windows[i : i + 1] if windows is not None else None
                try:
                    out.append(forecaster.forecast_batch([mmsi], row, [anchor])[0])
                except Exception:
                    self.forecasts_failed += 1
                    out.append(None)
            return out
