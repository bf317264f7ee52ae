"""The inference pass: ``infer`` is ``forward`` without the BPTT cache.

Four invariants:

* **bitwise** — every layer's and the model's ``infer`` returns exactly
  ``forward``'s bytes, at any batch (gemv at one row, gemm above), step
  count and width;
* **no cache** — an inference call leaves a layer with nothing for
  ``backward``, and one made between ``forward`` and ``backward`` leaves
  the training cache as ``forward`` left it;
* **validation** — ``Model.evaluate`` and therefore every epoch of
  ``Model.fit`` score the same loss, bit for bit, as the training pass;
* **one scan** — ``LSTM`` and ``Bidirectional`` step every direction in
  one loop over a leading direction axis, bitwise the per-direction loop
  kept below as the reference, and training through it ends on the
  reference's weights byte for byte.

The layers run in their input's dtype, so the first two hold for the
float32 serving pass too, and its output stays float32.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ais.preprocessing import SegmentDataset
from repro.ml import LSTM, Bidirectional, Dense, Model, MSELoss
from repro.ml.gradcheck import analytic_grads, max_relative_error, numeric_param_grad
from repro.ml.layers import _sigmoid
from repro.models.svrf import SVRFConfig, SVRFModel

TOL = 1e-5


def _stack(features: int, hidden: int, seed: int) -> Model:
    """The S-VRF shape: a BiLSTM, a tanh dense layer and a linear head."""
    return Model(
        [
            Bidirectional(features, hidden, seed=seed),
            Dense(2 * hidden, hidden, activation="tanh", seed=seed + 10),
            Dense(hidden, 4, seed=seed + 20),
        ]
    )


def _layers(features: int, hidden: int, seed: int) -> list:
    return [
        Dense(features, hidden, activation="linear", seed=seed),
        Dense(features, hidden, activation="tanh", seed=seed),
        Dense(features, hidden, activation="relu", seed=seed),
        LSTM(features, hidden, seed=seed),
        Bidirectional(features, hidden, seed=seed),
        _stack(features, hidden, seed),
    ]


class TestInferIsForward:
    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.integers(1, 300),
        steps=st.integers(1, 24),
        features=st.integers(1, 4),
        hidden=st.integers(1, 48),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_for_every_layer_and_the_model(self, batch, steps, features, hidden, seed):
        x = np.random.default_rng(seed).normal(size=(batch, steps, features))
        for layer in _layers(features, hidden, seed):
            xin = x[:, -1, :] if isinstance(layer, Dense) else x
            assert layer.infer(xin).tobytes() == layer.forward(xin).tobytes(), layer

    def test_predict_doubles_a_lone_row_through_infer(self):
        model = _stack(3, 8, seed=1)
        x = np.random.default_rng(1).normal(size=(5, 7, 3))
        fleet = model.predict(x)
        for i in range(x.shape[0]):
            assert model.predict(x[i : i + 1]).tobytes() == fleet[i : i + 1].tobytes()


class TestInferCachesNothing:
    @pytest.mark.parametrize(
        "layer, shape",
        [
            (Dense(4, 3, activation="tanh"), (2, 4)),
            (LSTM(3, 4), (2, 5, 3)),
            (Bidirectional(3, 4), (2, 5, 3)),
        ],
    )
    def test_backward_after_only_infer_is_refused(self, layer, shape):
        out = layer.infer(np.zeros(shape))
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.zeros_like(out))

    def test_predict_on_a_fresh_model_allocates_no_cache(self):
        model = _stack(3, 4, seed=2)
        out = model.predict(np.zeros((3, 5, 3)))
        with pytest.raises(RuntimeError, match="backward called before forward"):
            model.layers[-1].backward(np.zeros_like(out))
        with pytest.raises(RuntimeError, match="backward called before forward"):
            model.layers[0].backward(np.zeros((3, 8)))

    @pytest.mark.parametrize(
        "layer, shape_in, shape_out",
        [(LSTM(3, 4, seed=2), (4, 6, 3), (4, 4)), (Bidirectional(3, 3, seed=4), (3, 5, 3), (3, 6))],
    )
    def test_gradcheck_holds_with_a_predict_interleaved(self, layer, shape_in, shape_out):
        """``forward`` on the training batch, ``infer`` on another batch,
        then ``backward``: the gradients are the training batch's (the
        gradcheck suite's layers and data)."""
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=shape_in), rng.normal(size=shape_out)
        clean, _ = analytic_grads(layer, x, y)

        layer.zero_grads()
        pred = layer.forward(x)
        layer.infer(rng.normal(size=(7, 9, 3)))
        layer.backward(MSELoss()(pred, y)[1])
        for name, grad in layer.grads.items():
            assert grad.tobytes() == clean[name].tobytes(), name
            num = numeric_param_grad(layer, name, x, y)
            assert max_relative_error(grad, num) < TOL, name

    def test_hidden_sequence_is_the_training_pass(self):
        layer = LSTM(3, 4, seed=5)
        x = np.random.default_rng(5).normal(size=(2, 6, 3))
        layer.forward(x)
        before = layer.hidden_sequence.copy()
        layer.infer(np.ones((4, 3, 3)))
        np.testing.assert_array_equal(layer.hidden_sequence, before)


class TestValidationThroughInfer:
    def test_evaluate_is_bitwise_the_training_pass_loss(self):
        model = _stack(3, 6, seed=6)
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(1_025, 5, 3)), rng.normal(size=(1_025, 4))
        # 512 + 512 + a lone row: the last minibatch takes the gemv path.
        total = 0.0
        for start in range(0, x.shape[0], 512):
            loss, _ = model.loss_fn(model.forward(x[start : start + 512]), y[start : start + 512])
            total += loss * x[start : start + 512].shape[0]
        assert model.evaluate(x, y) == total / x.shape[0]


class TestFloat32Serving:
    """Float32 input runs every layer in float32: params cast per call, state
    allocated in the input's dtype, nothing promoting back to float64."""

    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.integers(1, 300),
        steps=st.integers(1, 24),
        features=st.integers(1, 4),
        hidden=st.integers(1, 48),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_for_every_layer_and_the_model(self, batch, steps, features, hidden, seed):
        x = np.random.default_rng(seed).normal(size=(batch, steps, features)).astype(np.float32)
        for layer in _layers(features, hidden, seed):
            xin = x[:, -1, :] if isinstance(layer, Dense) else x
            assert layer.infer(xin).tobytes() == layer.forward(xin).tobytes(), layer

    def test_predict_doubles_a_lone_row_through_infer(self):
        model = _stack(3, 8, seed=1)
        x = np.random.default_rng(1).normal(size=(5, 7, 3)).astype(np.float32)
        fleet = model.predict(x)
        for i in range(x.shape[0]):
            assert model.predict(x[i : i + 1]).tobytes() == fleet[i : i + 1].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 2, 33])
    def test_every_layer_returns_its_input_dtype(self, dtype, batch):
        x = np.random.default_rng(3).normal(size=(batch, 6, 3)).astype(dtype)
        for layer in _layers(3, 5, seed=3):
            xin = x[:, -1, :] if isinstance(layer, Dense) else x
            assert layer.infer(xin).dtype == dtype, layer
            assert layer.forward(xin).dtype == dtype, layer
        assert _stack(3, 5, seed=3).predict(x).dtype == dtype

    def test_float32_tracks_float64(self):
        model = _stack(3, 16, seed=4)
        x = np.random.default_rng(4).normal(size=(64, 20, 3))
        np.testing.assert_allclose(model.infer(x.astype(np.float32)), model.infer(x), atol=1e-5)

    def test_float64_params_are_untouched(self):
        model = _stack(3, 4, seed=5)
        before = {k: (v.dtype, v.tobytes()) for k, v in model.named_params().items()}
        model.predict(np.ones((3, 5, 3), dtype=np.float32))
        after = {k: (v.dtype, v.tobytes()) for k, v in model.named_params().items()}
        assert after == before


def reference_lstm_run(self: LSTM, x: np.ndarray, cache: bool) -> np.ndarray:
    """One LSTM's own step loop, the form before the stacked scan."""
    batch, steps, _ = x.shape
    H = self.hidden
    W, U, b = (self.params[k].astype(x.dtype, copy=False) for k in ("W", "U", "b"))
    h = np.zeros((batch, H), dtype=x.dtype)
    c = np.zeros((batch, H), dtype=x.dtype)
    if cache:
        hs = np.zeros((batch, steps, H), dtype=x.dtype)
        cache_steps = []
    for t in range(steps):
        z = x[:, t, :] @ W
        z += h @ U
        z += b
        i = _sigmoid(z[:, :H])
        f = _sigmoid(z[:, H : 2 * H])
        g = np.tanh(z[:, 2 * H : 3 * H])
        o = _sigmoid(z[:, 3 * H :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        if cache:
            cache_steps.append((h, c, i, f, g, o, tanh_c))
            hs[:, t, :] = h_new
        h, c = h_new, c_new
    if cache:
        self._cache = {"x": x, "steps": cache_steps, "hs": hs}
    return h


def reference_bidirectional_run(self: Bidirectional, x: np.ndarray, cache: bool) -> np.ndarray:
    """Each direction through its own loop, then concatenated."""
    h_fwd = reference_lstm_run(self.fwd, x, cache)
    h_bwd = reference_lstm_run(self.bwd, x[:, ::-1, :], cache)
    return np.concatenate([h_fwd, h_bwd], axis=1)


class TestOneScanIsThePerDirectionLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.one_of(st.integers(1, 300), st.sampled_from([1, 2, 3, 32, 128])),
        steps=st.integers(1, 24),
        features=st.integers(1, 4),
        hidden=st.integers(1, 48),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_through_forward_and_infer(self, batch, steps, features, hidden, dtype, seed):
        x = np.random.default_rng(seed).normal(size=(batch, steps, features)).astype(dtype)
        lstm, bi = LSTM(features, hidden, seed=seed), Bidirectional(features, hidden, seed=seed)
        for layer, reference in ((lstm, reference_lstm_run), (bi, reference_bidirectional_run)):
            want = reference(layer, x, cache=False)
            for got in (layer.infer(x), layer.forward(x)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), layer

    def test_training_cache_is_the_reference_loops(self):
        x = np.random.default_rng(7).normal(size=(5, 6, 3))
        scanned, looped = Bidirectional(3, 4, seed=7), Bidirectional(3, 4, seed=7)
        scanned.forward(x)
        reference_bidirectional_run(looped, x, cache=True)
        for a, b in ((scanned.fwd, looped.fwd), (scanned.bwd, looped.bwd)):
            assert a._cache["x"].tobytes() == b._cache["x"].tobytes()
            assert a._cache["hs"].tobytes() == b._cache["hs"].tobytes()
            for step_a, step_b in zip(a._cache["steps"], b._cache["steps"], strict=True):
                assert [v.tobytes() for v in step_a] == [v.tobytes() for v in step_b]

    def test_a_short_fit_ends_on_the_reference_weights(self, monkeypatch):
        rng = np.random.default_rng(11)
        n, steps = 300, 8
        data = SegmentDataset(
            x=rng.normal(size=(n, steps, 3)),
            y=rng.normal(size=(n, 6, 2)),
            anchor=np.zeros((n, 5)),
            mmsi=np.arange(n),
        )
        weights = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(LSTM, "_run", reference_lstm_run)
                monkeypatch.setattr(Bidirectional, "_run", reference_bidirectional_run)
            model = SVRFModel(SVRFConfig(hidden=12, dense=16, seed=3, input_steps=steps))
            model.fit(data, data.subset(np.arange(64)), epochs=2, seed=5)
            weights.append({k: v.tobytes() for k, v in model.network.named_params().items()})
        assert weights[0] == weights[1]
