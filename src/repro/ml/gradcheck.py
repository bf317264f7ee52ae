"""Numerical gradient verification.

The analytic backward passes in :mod:`repro.ml.layers` are hand-derived;
these helpers confirm them against central finite differences. They are used
by the test suite and are handy when extending the layer zoo.
"""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Layer
from repro.ml.losses import MSELoss


def _central_difference(
    layer: Layer, x: np.ndarray, target: np.ndarray, arr: np.ndarray, eps: float
) -> np.ndarray:
    """Finite-difference MSE gradient w.r.t. ``arr`` (a parameter or ``x``), perturbed in place."""
    loss_fn = MSELoss()
    grad = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up, _ = loss_fn(layer.forward(x), target)
        flat[i] = original - eps
        down, _ = loss_fn(layer.forward(x), target)
        flat[i] = original
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def numeric_param_grad(
    layer: Layer, name: str, x: np.ndarray, target: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Finite-difference gradient of the MSE loss w.r.t. one parameter."""
    return _central_difference(layer, x, target, layer.params[name], eps)


def numeric_input_grad(
    layer: Layer, x: np.ndarray, target: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Finite-difference gradient of the MSE loss w.r.t. the input."""
    return _central_difference(layer, x, target, x, eps)


def analytic_grads(
    layer: Layer, x: np.ndarray, target: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Backprop gradients for every parameter and for the input."""
    loss_fn = MSELoss()
    layer.zero_grads()
    pred = layer.forward(x)
    _, dloss = loss_fn(pred, target)
    dx = layer.backward(dloss)
    return {k: v.copy() for k, v in layer.grads.items()}, dx


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Elementwise ``|a-b| / max(|a|,|b|,1e-8)`` maximum — the standard
    gradient-check metric."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))
