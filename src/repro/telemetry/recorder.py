"""Per-message processing-time metrics (the Figure 6 series).

Figure 6 of the paper plots *average processing time against the number of
distinct vessels (actors) active in the system*, smoothed with a moving
window of 100 actors. :class:`MetricsRecorder` captures exactly the samples
that plot needs: for every processed message, the actor count at that moment
and the wall time the delivery took (including any actor spawn it
triggered, which is what produces the paper's initialisation spike).

Samples are recorded by the dispatcher on the thread that runs the
delivery; a short lock keeps the two sample arrays in step for a reader
on another thread.

The general-purpose registry (counters/gauges/histograms) lives in
:mod:`repro.telemetry.registry` — this recorder stays separate because
Figure 6 needs the *raw* sample pairs, not summaries.
"""

from __future__ import annotations

import threading
from array import array

import numpy as np


class MetricsRecorder:
    """Compact append-only store of (actor_count, processing_seconds)."""

    def __init__(self) -> None:
        self._actor_counts = array("q")
        self._durations = array("d")
        self._lock = threading.Lock()

    def record(self, actor_count: int, duration_s: float) -> None:
        with self._lock:
            self._actor_counts.append(actor_count)
            self._durations.append(duration_s)

    def __len__(self) -> int:
        with self._lock:
            return len(self._durations)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(actor_counts, durations_s)`` as numpy arrays."""
        with self._lock:
            counts = np.frombuffer(self._actor_counts, dtype=np.int64).copy()
            durations = np.frombuffer(self._durations,
                                      dtype=np.float64).copy()
        return counts, durations

    def snapshot(self) -> dict:
        """Summary statistics for the writer/telemetry path.

        Machine-readable (plain floats/ints only): sample count, total and
        mean processing seconds, latency percentiles in milliseconds, and
        the peak actor count observed — the per-node payload aggregated by
        the distributed Figure 6 driver.
        """
        counts, durations = self.as_arrays()
        if durations.size == 0:
            return {"samples": 0, "total_s": 0.0, "mean_ms": 0.0,
                    "p50_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0,
                    "peak_actor_count": 0}
        ms = durations * 1e3
        return {
            "samples": int(durations.size),
            "total_s": float(durations.sum()),
            "mean_ms": float(ms.mean()),
            "p50_ms": float(np.percentile(ms, 50)),
            "p99_ms": float(np.percentile(ms, 99)),
            "max_ms": float(ms.max()),
            "peak_actor_count": int(counts.max()),
        }

    def curve_by_actor_count(self, window_actors: int = 100
                             ) -> tuple[np.ndarray, np.ndarray]:
        """Figure 6's series: mean processing time per actor-count bucket,
        smoothed over a ``window_actors``-wide moving window.

        Samples are grouped by the actor count at processing time; bucket
        means are then smoothed with a centred moving average spanning
        ``window_actors`` distinct actor counts.
        """
        counts, durations = self.as_arrays()
        if counts.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        uniq, inverse = np.unique(counts, return_inverse=True)
        sums = np.bincount(inverse, weights=durations)
        ns = np.bincount(inverse)
        means = sums / ns
        smoothed = MovingAverage.smooth(means, window=max(1, window_actors))
        return uniq, smoothed


class MovingAverage:
    """Centred moving-average smoothing used by the Figure 6 plot."""

    @staticmethod
    def smooth(values: np.ndarray, window: int) -> np.ndarray:
        if window <= 1 or values.size == 0:
            return values.astype(float, copy=True)
        window = min(window, values.size)
        kernel = np.ones(window) / window
        padded = np.concatenate([
            np.full(window // 2, values[0]),
            values.astype(float),
            np.full(window - 1 - window // 2, values[-1])])
        return np.convolve(padded, kernel, mode="valid")
