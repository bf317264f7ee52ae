"""Pooled fleet-wide forecast inference.

The paper mounts the S-VRF model "only once in memory" per node — but the
seed reproduction still *executed* it once per vessel per kept fix, a
batch-size-1 forward pass whose BLAS calls dominate the single-node hot
path. :class:`ForecastService` turns those per-vessel calls into fleet-wide
micro-batches, exactly the way the writer pool batches KV operations:

* vessel actors :meth:`submit` their displacement window + anchor instead
  of invoking the model synchronously,
* requests pool per node, every request keeping its own batch row (a
  vessel with two kept fixes in one linger window gets both forecasts, in
  order — the fan-out set stays identical to unbatched inference, which
  the event-parity gate relies on),
* the batch executes after ``forecast_batch_max`` pending vessels or a
  ``forecast_linger_s`` virtual-time linger — **one**
  ``predict_transitions((n, INPUT_STEPS, 3))`` pass over the whole fleet,
* the flush (:func:`~repro.platform.vessel_actor.share_forecasts`) shares
  each produced forecast with its collision cells *in row order*
  (per-vessel mailboxes could not guarantee the cross-vessel ordering
  collision pairing is sensitive to), notifying each requesting vessel
  with a :class:`~repro.platform.messages.ForecastReady` message right
  after its row — preserving the actor model's one-writer-per-state
  discipline for the twin's own state — and hands the flow actor the whole
  flush in one message.

Per-vessel results are bitwise identical to the unbatched path (see
``Model.predict``), which the batched-vs-unbatched parity leg of the bench
gate and the property tests assert.

The service is a plain shared object (like the forecaster itself), not an
actor: submission is a method call from inside the vessel actor's receive,
so pooling adds no extra envelope per request. When a batch executes is
the shared :class:`~repro.platform.batching.MicroBatcher` discipline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.actors import ActorContext
from repro.geo.track import Position
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
        #: Displacement steps per window row (0: anchors-only forecaster).
        self.window_size = getattr(wiring.forecaster, "window_size", 0)
        self._windows = (
            np.empty((self.batch_max, self.window_size, 3)) if self.window_size else None
        )
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

    def submit(
        self, mmsi: int, window: np.ndarray | None, anchor: Position, ctx: ActorContext
    ) -> None:
        """Queue one vessel's forecast request.

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
            if self._windows is not None and window is not None:
                self._windows[slot] = window
            self.requests_pooled += 1
            self._batcher.added()

    # -- flushing -------------------------------------------------------------------

    def flush(self, reason: str = "explicit") -> int:
        """Execute the pending pooled batch; returns how many forecasts
        were produced (0 for an empty flush)."""
        return self._batcher.flush(reason)

    def _execute(self, n: int) -> float:
        mmsis, anchors, submit_ts = self._mmsis, self._anchors, self._submit_ts
        windows = self._windows[:n] if self._windows is not None else None
        forecasts = self._run_batch(mmsis, windows, anchors)
        self._mmsis, self._anchors, self._submit_ts = [], [], []
        router = self.wiring.vessel_router

        def reply(i: int) -> None:
            router.tell(mmsis[i], ForecastReady(forecast=forecasts[i], t_submitted=submit_ts[i]))

        share_forecasts(self.wiring, forecasts, after_row=reply)
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
