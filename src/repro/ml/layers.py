"""Neural-network layers with hand-derived backward passes.

Every layer follows the same contract:

* ``forward(x)`` consumes a batch and caches whatever backward needs,
* ``infer(x)`` is the same pass, bitwise, caching nothing: inference pays
  for no BPTT cache and leaves a pending ``backward``'s cache intact,
* ``backward(dout)`` consumes the loss gradient w.r.t. the layer output,
  accumulates parameter gradients into ``self.grads`` and returns the
  gradient w.r.t. the layer input,
* ``params`` / ``grads`` are dicts of same-shaped numpy arrays.

Both passes are a subclass's one ``_run(x, cache)``, run in ``x``'s dtype.

Shapes: sequence layers take ``(batch, time, features)``; ``Dense`` takes
``(batch, features)``. ``LSTM``/``Bidirectional`` emit the *final* hidden
state(s) — the S-VRF architecture summarises the input track into one
vector before the fully-connected head.
"""

from __future__ import annotations

import numpy as np

from repro.ml.initializers import glorot_uniform, recurrent_orthogonal


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 0.5 * (1 + tanh(x/2)): stable at both tails; Python-float constants keep x's dtype.
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class Layer:
    """Base class; see module docstring for the contract."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Training pass: caches what :meth:`backward` needs."""
        return self._run(x, cache=True)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference pass: bitwise :meth:`forward`'s output, nothing cached."""
        return self._run(x, cache=False)

    def _run(self, x: np.ndarray, cache: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g.fill(0.0)

    @property
    def regularizable(self) -> tuple[str, ...]:
        """Parameters under weight regularisation: kernels, not biases."""
        return tuple(name for name in self.params if name != "b")


class Dense(Layer):
    """Fully connected layer ``y = act(x W + b)``."""

    def __init__(
        self, in_features: int, out_features: int, activation: str = "linear", seed: int = 0
    ) -> None:
        super().__init__()
        if activation not in ("linear", "tanh", "relu"):
            raise ValueError(f"unknown activation {activation!r}")
        rng = np.random.default_rng(seed)
        self.activation = activation
        self.params = {
            "W": glorot_uniform(rng, in_features, out_features),
            "b": np.zeros(out_features),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._x: np.ndarray | None = None
        self._pre: np.ndarray | None = None

    def _run(self, x: np.ndarray, cache: bool) -> np.ndarray:
        W, b = (self.params[k].astype(x.dtype, copy=False) for k in ("W", "b"))
        pre = x @ W + b
        if cache:
            self._x, self._pre = x, pre
        if self.activation == "tanh":
            return np.tanh(pre)
        if self.activation == "relu":
            return np.maximum(pre, 0.0)
        return pre

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        if self.activation == "tanh":
            dout = dout * (1.0 - np.tanh(self._pre) ** 2)
        elif self.activation == "relu":
            dout = dout * (self._pre > 0.0)
        self.grads["W"] += self._x.T @ dout
        self.grads["b"] += dout.sum(axis=0)
        return dout @ self.params["W"].T


class LSTM(Layer):
    """Single LSTM layer returning the final hidden state.

    Gate layout in the fused kernels is ``[i, f, g, o]`` (input, forget,
    candidate, output). Returns ``(batch, hidden)``; ``forward`` also keeps
    the hidden sequence for BPTT, exposed as ``hidden_sequence``.
    """

    def __init__(
        self, in_features: int, hidden: int, seed: int = 0, forget_bias: float = 1.0
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.in_features = in_features
        self.hidden = hidden
        self.params = {
            "W": glorot_uniform(rng, in_features, 4 * hidden, shape=(in_features, 4 * hidden)),
            "U": recurrent_orthogonal(rng, hidden),
            "b": np.zeros(4 * hidden),
        }
        # Positive forget-gate bias: the classic trick that lets gradients
        # flow through time early in training.
        self.params["b"][hidden : 2 * hidden] = forget_bias
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cache: dict | None = None

    def _run(self, x: np.ndarray, cache: bool) -> np.ndarray:
        return _scan((self,), (x,), cache)[0]

    @property
    def hidden_sequence(self) -> np.ndarray:
        """All hidden states ``(batch, time, hidden)`` of the last forward."""
        if self._cache is None:
            raise RuntimeError("no forward pass cached")
        return self._cache["hs"]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """BPTT from the gradient w.r.t. the final hidden state."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x = self._cache["x"]
        cache_steps = self._cache["steps"]
        batch, steps, _ = x.shape
        H = self.hidden
        W, U = self.params["W"], self.params["U"]

        dx = np.zeros_like(x)
        dh_next = dout.copy()
        dc_next = np.zeros((batch, H))
        dW = self.grads["W"]
        dU = self.grads["U"]
        db = self.grads["b"]

        for t in range(steps - 1, -1, -1):
            h_prev, c_prev, i, f, g, o, tanh_c = cache_steps[t]
            do = dh_next * tanh_c
            dc = dh_next * o * (1.0 - tanh_c**2) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f

            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g**2),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )

            dW += x[:, t, :].T @ dz
            dU += h_prev.T @ dz
            db += dz.sum(axis=0)
            dx[:, t, :] = dz @ W.T
            dh_next = dz @ U.T
        return dx


def _scan(lstms: tuple, xs: tuple, cache: bool) -> np.ndarray:
    """Run ``D`` same-shaped LSTMs, ``lstms[d]`` over ``xs[d]``, in one step
    loop over a leading direction axis; returns the final states ``(D,
    batch, hidden)``. Each step is one stacked ``(D,B,F)@(D,F,4H)`` and one
    ``(D,B,H)@(D,H,4H)`` product: numpy runs one gemm (gemv at one row) per
    direction, the very call a lone LSTM makes, so every direction's bits
    are its own loop's. With ``cache`` each LSTM gets its own BPTT cache."""
    first = lstms[0]
    x = xs[0]
    if x.ndim != 3 or x.shape[2] != first.in_features:
        raise ValueError(f"expected (batch, time, {first.in_features}), got {x.shape}")
    batch, steps, _ = x.shape
    H = first.hidden
    W, U, b = (np.array([lstm.params[k] for lstm in lstms], dtype=x.dtype) for k in ("W", "U", "b"))
    b = b[:, np.newaxis, :]
    x = np.stack(xs)

    h = np.zeros((len(lstms), batch, H), dtype=x.dtype)
    c = np.zeros((len(lstms), batch, H), dtype=x.dtype)
    if cache:
        hs = np.zeros((len(lstms), batch, steps, H), dtype=x.dtype)
        cache_steps = []
    for t in range(steps):
        # In place: (x W + h U) + b without two (D, batch, 4H) temporaries.
        z = x[:, :, t, :] @ W
        z += h @ U
        z += b
        i = _sigmoid(z[..., :H])
        f = _sigmoid(z[..., H : 2 * H])
        g = np.tanh(z[..., 2 * H : 3 * H])
        o = _sigmoid(z[..., 3 * H :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        if cache:
            cache_steps.append((h, c, i, f, g, o, tanh_c))
            hs[:, :, t, :] = h_new
        h, c = h_new, c_new
    if cache:
        for d, lstm in enumerate(lstms):
            lstm._cache = {
                "x": xs[d],
                "steps": [tuple(a[d] for a in step) for step in cache_steps],
                "hs": hs[d],
            }
    return h


class Bidirectional(Layer):
    """Bidirectional wrapper: runs one LSTM forward and one on the
    time-reversed input, concatenating the two final hidden states.

    This is the paper's BiLSTM layer ("BiLSTM adds one more LSTM layer,
    which reverses the direction of information flow ... Concatenation is
    used for combining the bidirectional LSTM-layer outputs", Section 4.2).
    Output shape: ``(batch, 2*hidden)``.
    """

    def __init__(self, in_features: int, hidden: int, seed: int = 0) -> None:
        super().__init__()
        self.fwd = LSTM(in_features, hidden, seed=seed)
        self.bwd = LSTM(in_features, hidden, seed=seed + 1)
        self.hidden = hidden
        # Expose both children's parameters under prefixed names so the
        # optimizer and regularizers see a flat dict.
        self.params = {f"fwd_{k}": v for k, v in self.fwd.params.items()}
        self.params.update({f"bwd_{k}": v for k, v in self.bwd.params.items()})
        self.grads = {f"fwd_{k}": v for k, v in self.fwd.grads.items()}
        self.grads.update({f"bwd_{k}": v for k, v in self.bwd.grads.items()})

    @property
    def regularizable(self) -> tuple[str, ...]:
        return tuple(n for n in self.params if not n.endswith("b"))

    def _run(self, x: np.ndarray, cache: bool) -> np.ndarray:
        return np.concatenate(_scan((self.fwd, self.bwd), (x, x[:, ::-1, :]), cache), axis=1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        H = self.hidden
        dx_fwd = self.fwd.backward(dout[:, :H])
        dx_bwd = self.bwd.backward(dout[:, H:])
        return dx_fwd + dx_bwd[:, ::-1, :]
