"""The inference pass: ``infer`` is ``forward`` without the BPTT cache.

Three invariants:

* **bitwise** — every layer's and the model's ``infer`` returns exactly
  ``forward``'s bytes, at any batch (gemv at one row, gemm above), step
  count and width;
* **no cache** — an inference call leaves a layer with nothing for
  ``backward``, and one made between ``forward`` and ``backward`` leaves
  the training cache as ``forward`` left it;
* **validation** — ``Model.evaluate`` and therefore every epoch of
  ``Model.fit`` score the same loss, bit for bit, as the training pass.

The layers run in their input's dtype, so the first two hold for the
float32 serving pass too, and its output stays float32.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import LSTM, Bidirectional, Dense, Model, MSELoss
from repro.ml.gradcheck import analytic_grads, max_relative_error, numeric_param_grad

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
