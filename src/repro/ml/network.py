"""Model container: layer stacking, training loop, persistence."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ml.layers import Layer
from repro.ml.losses import MSELoss
from repro.ml.optimizers import Adam
from repro.ml.regularizers import L1Regularizer, L2Regularizer


@dataclass
class TrainingHistory:
    """Per-epoch loss curves produced by :meth:`Model.fit`."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)

    @property
    def best_val_loss(self) -> float:
        return min(self.val_loss) if self.val_loss else float("nan")

    @property
    def epochs(self) -> int:
        return len(self.train_loss)


class Model:
    """A sequential stack of layers with an MSE training loop.

    Regularizers are attached per layer index (the paper regularises the
    BiLSTM layer specifically): ``regularizers={0: L1Regularizer(1e-5)}``.
    """

    def __init__(
        self,
        layers: list[Layer],
        regularizers: dict[int, L1Regularizer | L2Regularizer] | None = None,
    ) -> None:
        if not layers:
            raise ValueError("model needs at least one layer")
        self.layers = layers
        self.regularizers = regularizers or {}
        for idx in self.regularizers:
            if not 0 <= idx < len(layers):
                raise ValueError(f"regularizer index {idx} out of range")
        self.loss_fn = MSELoss()

    # -- forward / backward ------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Training pass: every layer caches what its backward needs."""
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference pass: bitwise :meth:`forward`'s output, nothing cached."""
        for layer in self.layers:
            x = layer.infer(x)
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference pass (:meth:`infer`), batch-size consistent.

        BLAS sends a single-row matmul to gemv and more rows to gemm (sgemv
        and sgemm in float32), whose per-row results can differ in the last
        ulp. A lone sample is therefore duplicated to a 2-row batch (gemm,
        like every n >= 2 batch) and the first row returned, so one vessel
        forecast is bitwise its row in a fleet-wide batch.
        """
        if x.shape[0] == 1:
            return self.infer(np.concatenate([x, x], axis=0))[:1]
        return self.infer(x)

    def _keyed(self, attr: str) -> dict[tuple[int, str], np.ndarray]:
        return {
            (i, name): arr
            for i, layer in enumerate(self.layers)
            for name, arr in getattr(layer, attr).items()
        }

    def _regularization(self, apply_grads: bool) -> float:
        penalty = 0.0
        for idx, reg in self.regularizers.items():
            layer = self.layers[idx]
            for name in layer.regularizable:
                penalty += reg.penalty(layer.params[name])
                if apply_grads:
                    layer.grads[name] += reg.grad(layer.params[name])
        return penalty

    def train_step(self, x: np.ndarray, y: np.ndarray, optimizer) -> float:
        """One gradient step on a minibatch; returns the total loss."""
        for layer in self.layers:
            layer.zero_grads()
        pred = self.forward(x)
        loss, dloss = self.loss_fn(pred, y)
        grad = dloss
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        loss += self._regularization(apply_grads=True)
        optimizer.step(self._keyed("params"), self._keyed("grads"))
        return loss

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 512) -> float:
        """Mean MSE over a dataset (no regularisation term), through the
        cache-free :meth:`infer`: the loss is bitwise the training pass's."""
        total, n = 0.0, 0
        for start in range(0, x.shape[0], batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            loss, _ = self.loss_fn(self.infer(xb), yb)
            total += loss * xb.shape[0]
            n += xb.shape[0]
        return total / max(n, 1)

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
        epochs: int = 20,
        batch_size: int = 128,
        lr: float = 1e-3,
        seed: int = 0,
        patience: int | None = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Adam training with optional early stopping on validation loss.

        ``patience`` epochs without validation improvement stop training and
        restore the best parameters seen.
        """
        optimizer = Adam(lr=lr)
        rng = np.random.default_rng(seed)
        history = TrainingHistory()
        best_val = float("inf")
        best_state: list[dict[str, np.ndarray]] | None = None
        stall = 0

        for epoch in range(epochs):
            order = rng.permutation(x.shape[0])
            epoch_loss, batches = 0.0, 0
            for start in range(0, x.shape[0], batch_size):
                idx = order[start : start + batch_size]
                epoch_loss += self.train_step(x[idx], y[idx], optimizer)
                batches += 1
            history.train_loss.append(epoch_loss / max(batches, 1))

            if x_val is not None and y_val is not None:
                val = self.evaluate(x_val, y_val)
                history.val_loss.append(val)
                if verbose:
                    print(
                        f"epoch {epoch + 1}/{epochs} "
                        f"train={history.train_loss[-1]:.6f} val={val:.6f}"
                    )
                if val < best_val - 1e-12:
                    best_val = val
                    best_state = self._snapshot()
                    stall = 0
                else:
                    stall += 1
                    if patience is not None and stall >= patience:
                        break
            elif verbose:
                print(f"epoch {epoch + 1}/{epochs} train={history.train_loss[-1]:.6f}")

        if best_state is not None:
            self._restore(best_state)
        return history

    # -- persistence ----------------------------------------------------------------

    def _snapshot(self) -> list[dict[str, np.ndarray]]:
        return [{name: arr.copy() for name, arr in layer.params.items()} for layer in self.layers]

    def _restore(self, state: list[dict[str, np.ndarray]]) -> None:
        for layer, params in zip(self.layers, state):
            for name, arr in params.items():
                layer.params[name][...] = arr

    def named_params(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Every parameter under ``{prefix}{layer index}__{name}``."""
        return {
            f"{prefix}{i}__{name}": arr
            for i, layer in enumerate(self.layers)
            for name, arr in layer.params.items()
        }

    def save_params(self, path: str | Path) -> None:
        """Persist all parameters to an ``.npz`` file."""
        np.savez_compressed(path, **self.named_params())

    def load_params(self, path: str | Path, prefix: str = "") -> None:
        """Load the :meth:`named_params` entries under ``prefix`` of an
        ``.npz`` file into this model (architectures must match); other
        entries are skipped."""
        data = np.load(path)
        for key in data.files:
            if not key.startswith(prefix):
                continue
            idx_text, name = key[len(prefix) :].split("__", 1)
            layer = self.layers[int(idx_text)]
            if name not in layer.params:
                raise KeyError(f"layer {idx_text} has no parameter {name!r}")
            if layer.params[name].shape != data[key].shape:
                raise ValueError(
                    f"shape mismatch for {key}: {layer.params[name].shape} vs {data[key].shape}"
                )
            layer.params[name][...] = data[key]

    def parameter_count(self) -> int:
        return sum(arr.size for layer in self.layers for arr in layer.params.values())
