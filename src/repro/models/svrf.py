"""The Short-term Vessel Route Forecasting (S-VRF) model.

Architecture per Figure 3 of the paper: one input layer consuming the fixed
tensor of 20 past spatiotemporal displacements, one BiLSTM layer, one fully
connected layer, and an output layer producing six (Δlat, Δlon) transitions
at 5-minute intervals up to the 30-minute horizon. The BiLSTM carries the
paper's L1 in-layer regularisation.

The class covers the model's full lifecycle as the platform uses it:
training from a :class:`~repro.ais.preprocessing.SegmentDataset`, batch
prediction for evaluation, a single-vessel :meth:`forecast` used at the
actor level ("the short-term vessel route forecasting model is mounted only
once in memory, serving simultaneously the requirements of each vessel
actor", Section 3), and ``.npz`` persistence so the platform can mount a
pre-trained model at initialisation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.ais.preprocessing import (
    INPUT_STEPS,
    OUTPUT_STEPS,
    SegmentDataset,
)
from repro.geo.track import Position
from repro.ml import (
    LSTM,
    Bidirectional,
    Dense,
    L1Regularizer,
    Model,
    StandardScaler,
)
from repro.ml.network import TrainingHistory
from repro.models.base import RouteForecast, forecasts_from_marks, stage_track

#: Input features per displacement step: (Δlat, Δlon, Δt).
N_FEATURES = 3


@dataclass(frozen=True)
class SVRFConfig:
    """Hyperparameters of the integrated S-VRF model.

    Defaults reflect the paper's constraints: small enough to mount once in
    memory and share across every vessel actor, with the fixed 20-step
    input / 6-transition output contract of Figure 3.
    """

    hidden: int = 48
    dense: int = 64
    l1_lambda: float = 1e-6
    seed: int = 0
    input_steps: int = INPUT_STEPS
    output_steps: int = OUTPUT_STEPS
    #: Figure 3 uses a BiLSTM; the unidirectional variant exists for the
    #: BiLSTM-vs-LSTM ablation the paper's design change motivates.
    bidirectional: bool = True


class SVRFModel:
    """BiLSTM route forecaster with feature/target standardisation."""

    def __init__(self, config: SVRFConfig | None = None) -> None:
        self.config = config or SVRFConfig()
        cfg = self.config
        if cfg.bidirectional:
            recurrent = Bidirectional(N_FEATURES, cfg.hidden, seed=cfg.seed)
            recurrent_out = 2 * cfg.hidden
        else:
            recurrent = LSTM(N_FEATURES, cfg.hidden, seed=cfg.seed)
            recurrent_out = cfg.hidden
        self.network = Model(
            layers=[
                recurrent,
                Dense(recurrent_out, cfg.dense, activation="tanh", seed=cfg.seed + 10),
                Dense(cfg.dense, cfg.output_steps * 2, seed=cfg.seed + 20),
            ],
            regularizers={0: L1Regularizer(cfg.l1_lambda)},
        )
        self.x_scaler = StandardScaler()
        self.y_scaler = StandardScaler()
        self.trained = False

    # -- training ------------------------------------------------------------

    def fit(
        self, train: SegmentDataset, val: SegmentDataset | None = None, **options
    ) -> TrainingHistory:
        """Train on preprocessed segments; scalers are fitted on the
        training split only. ``options`` go to :meth:`Model.fit` over the
        S-VRF defaults: 25 epochs, ``lr=2e-3`` and ``patience=6``."""
        if len(train) == 0:
            raise ValueError("training dataset is empty")
        x = self.x_scaler.fit_transform(train.x)
        y = self.y_scaler.fit_transform(train.y.reshape(len(train), -1))
        x_val = y_val = None
        if val is not None and len(val):
            x_val = self.x_scaler.transform(val.x)
            y_val = self.y_scaler.transform(val.y.reshape(len(val), -1))
        options = {"epochs": 25, "lr": 2e-3, "patience": 6, **options}
        history = self.network.fit(x, y, x_val, y_val, **options)
        self.trained = True
        return history

    def _require_trained(self) -> None:
        if not self.trained:
            raise RuntimeError("S-VRF model is not trained/loaded")

    # -- batch prediction ---------------------------------------------------------

    def predict_transitions(self, x: np.ndarray) -> np.ndarray:
        """Predicted transitions ``(n, OUTPUT_STEPS, 2)`` in degrees from a
        raw (unscaled) input tensor ``(n, INPUT_STEPS, 3)``."""
        self._require_trained()
        if x.ndim != 3 or x.shape[1:] != (self.config.input_steps, N_FEATURES):
            raise ValueError(
                f"expected (n, {self.config.input_steps}, {N_FEATURES}), got {x.shape}"
            )
        # Served in float32, Keras's default; the float64 scalers bring it back.
        z = self.network.predict(self.x_scaler.transform(x).astype(np.float32))
        y = self.y_scaler.inverse_transform(z)
        return y.reshape(-1, self.config.output_steps, 2)

    def predict_positions(self, anchor: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predicted absolute positions at the six 5-minute marks.

        Transitions are cumulatively summed from the anchor position —
        the inverse of the target construction in preprocessing.
        """
        transitions = self.predict_transitions(x)
        lat = anchor[:, 1:2] + np.cumsum(transitions[:, :, 0], axis=1)
        lon = anchor[:, 2:3] + np.cumsum(transitions[:, :, 1], axis=1)
        return lat, lon

    # -- actor-level single-vessel forecast -----------------------------------------

    def make_windows(self, tracks: np.ndarray) -> np.ndarray:
        """The ``(n, input_steps, 3)`` displacement windows of ``tracks``,
        ``(n, input_steps + 1, 3)`` rows of ``(t, lat, lon)``, oldest first:
        one subtraction along the rows, reordered to ``(Δlat, Δlon, Δt)``.
        A short history led by copies of its oldest fix reads ``+0.0``
        displacements there — the "variable filling" of the original
        variable-length formulation [4]."""
        return (tracks[:, 1:] - tracks[:, :-1])[:, :, (1, 2, 0)]

    def forecast_batch(
        self, mmsis: Sequence[int], windows: np.ndarray, anchors: Sequence[Position]
    ) -> list[RouteForecast]:
        """Forecasts for many vessels from one pooled forward pass.

        ``windows`` is the ``(n, input_steps, 3)`` tensor of
        :meth:`make_windows` (or a dataset's ``x``) and ``anchors`` each
        vessel's latest fix. One batched matmul serves the whole fleet;
        per-row results are bitwise identical to :meth:`forecast` (see
        ``Model.predict``).
        """
        transitions = self.predict_transitions(windows)
        anchor_ll = np.array([(a.lat, a.lon) for a in anchors], dtype=np.float64)
        # One running sum along each row from the anchor: the marks, bitwise
        # the sequential per-mark additions.
        steps = np.concatenate([anchor_ll[:, :, None], transitions.transpose(0, 2, 1)], axis=2)
        return forecasts_from_marks(mmsis, anchors, np.cumsum(steps, axis=2))

    def forecast(self, mmsi: int, history: Sequence[Position], pad: bool = False) -> RouteForecast:
        """Forecast for one vessel from its recent downsampled fixes.

        Needs :attr:`min_history` fixes (20 displacements); with ``pad=True``
        two fixes upward, staged by :func:`stage_track` (zero leading
        displacements), so newly appeared vessels forecast before their
        window fills. A single-row :meth:`forecast_batch`, so it is
        bitwise the same vessel's row in a pooled fleet-wide batch.
        """
        recent = list(history[-self.min_history :])
        needed = 2 if pad else self.min_history
        if len(recent) < needed:
            raise ValueError(f"S-VRF needs {needed} fixes, got {len(recent)}")
        tracks = np.empty((1, self.min_history, 3))
        stage_track(tracks[0], np.array([(p.t, p.lat, p.lon) for p in recent]))
        return self.forecast_batch([mmsi], self.make_windows(tracks), [recent[-1]])[0]

    @property
    def min_history(self) -> int:
        """Minimum fixes :meth:`forecast` requires."""
        return self.config.input_steps + 1

    @property
    def window_size(self) -> int:
        """Displacement steps per :meth:`make_windows` row (the pooled batch width)."""
        return self.config.input_steps

    # -- persistence --------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist weights, scalers and config to one ``.npz`` file."""
        self._require_trained()
        flat = self.network.named_params("net_")
        for axis, scaler in (("x", self.x_scaler), ("y", self.y_scaler)):
            flat[f"{axis}_mean"], flat[f"{axis}_std"] = scaler.mean_, scaler.std_
        cfg = asdict(self.config)
        flat["config_keys"] = np.array(sorted(cfg), dtype="U32")
        flat["config_values"] = np.array([float(cfg[k]) for k in sorted(cfg)])
        np.savez_compressed(path, **flat)

    @classmethod
    def load(cls, path: str | Path) -> "SVRFModel":
        data = np.load(path)
        cfg_map = dict(zip(data["config_keys"].tolist(), data["config_values"].tolist()))
        # Each value back to its field's type; an older file may lack one.
        default = asdict(SVRFConfig())
        model = cls(SVRFConfig(**{k: type(v)(cfg_map.get(k, v)) for k, v in default.items()}))
        model.network.load_params(path, prefix="net_")
        model.x_scaler = StandardScaler.from_state({"mean": data["x_mean"], "std": data["x_std"]})
        model.y_scaler = StandardScaler.from_state({"mean": data["y_mean"], "std": data["y_std"]})
        model.trained = True
        return model


def train_svrf(
    train: SegmentDataset,
    val: SegmentDataset,
    config: SVRFConfig | None = None,
    cache_path: str | Path | None = None,
    **options,
) -> SVRFModel:
    """Train (or load a cached) S-VRF model; ``options`` go to
    :meth:`SVRFModel.fit`.

    ``cache_path`` makes the expensive training step idempotent for the
    benchmark harness: if the file exists it is loaded, otherwise the model
    is trained and saved there.
    """
    if cache_path is not None:
        cache_path = Path(cache_path)
        if cache_path.exists():
            return SVRFModel.load(cache_path)
    model = SVRFModel(config)
    model.fit(train, val, **options)
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        model.save(cache_path)
    return model
