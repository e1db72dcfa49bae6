import hashlib
import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from bearingsound import mlp
from bearingsound.common import LABELS
from bearingsound.errors import ConfigError, DataError, FormatError, NumericError
from bearingsound.mlp import NormalizationStats


def zero_model(dims=(13, 4, 3, 2)):
    model = mlp.init_model(dims, seed=0)
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    return model


def toy_blobs(n=100, seed=3):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(loc=(-2.0, -2.0), scale=0.6, size=(n, 2))
    x1 = rng.normal(loc=(2.0, 2.0), scale=0.6, size=(n, 2))
    x = np.vstack([x0, x1])
    y = np.array([0] * n + [1] * n)
    return x, y


class TestForward:
    def test_zero_parameters_give_even_posteriors(self):
        posteriors = mlp.predict_batch(zero_model(), np.zeros(13))[0]
        np.testing.assert_array_equal(posteriors, [0.5, 0.5])
        assert LABELS[posteriors.argmax()] == "H"  # ties go to H

    def test_posteriors_sum_to_one(self):
        rng = np.random.default_rng(2)
        model = mlp.init_model((13, 8, 5, 2), seed=7)
        for _ in range(50):
            p = mlp.predict_batch(model, rng.standard_normal(13))[0]
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p >= 0.0)

    def test_matches_hand_rolled_matrix_chain(self):
        model = mlp.init_model((13, 4, 3, 2), seed=5)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(13)
        a = x
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
        logits = a @ model.weights[-1] + model.biases[-1]
        e = np.exp(logits - logits.max())
        expected = e / e.sum()
        got = mlp.predict_batch(model, x)[0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_softmax_translation_invariance(self):
        model = mlp.init_model((4, 3, 2), seed=1)
        x = np.array([0.3, -1.2, 0.7, 2.0])
        base = mlp.predict_batch(model, x)[0]
        shifted_model = mlp.init_model((4, 3, 2), seed=1)
        shifted_model.biases[-1][:] += 123.456
        shifted = mlp.predict_batch(shifted_model, x)[0]
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DataError):
            mlp.predict_batch(zero_model(), np.zeros(7))

    def test_model_without_stats_scores_raw_rows(self):
        # A model built without z-scoring holds the identity, which leaves
        # every row's bytes as they are.
        x = np.random.default_rng(8).normal(2.0, 3.0, size=(20, 13))
        built = mlp.init_model((13, 4, 3, 2), seed=5)
        direct = mlp.MlpModel(dims=built.dims, params=built.params.copy())
        for model in (built, direct):
            assert np.array_equal(model.norm_stats.mean, np.zeros(13))
            assert np.array_equal(model.norm_stats.std, np.ones(13))
            assert np.array_equal(mlp.predict_batch(model, x),
                                  mlp._forward_pass(model, x)[1])


def normalized_default_model(x, seed=0):
    model = mlp.init_model((13, 1024, 100, 2), seed=seed)
    model.norm_stats = NormalizationStats(x.mean(axis=0), x.std(axis=0))
    return model


class TestBlockedPrediction:
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 3 * 256 + 5])
    def test_blocks_score_like_unblocked_passes(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(2.0, 3.0, size=(n, 13))
        model = normalized_default_model(rng.normal(2.0, 3.0, size=(50, 13)))
        got = mlp.predict_batch(model, x)
        z = mlp._model_inputs(model, x)
        # One unblocked pass per block: the reused buffers carry nothing
        # from one block into the next, so the bytes agree exactly.
        blocks = [mlp._forward_pass(model, z[start : start + 256])[1]
                  for start in range(0, n, 256)]
        assert np.array_equal(got, np.concatenate(blocks or [np.empty((0, 2))]))
        # One unblocked pass over all n rows: BLAS may pick another kernel
        # for another row count (gemv for one row, a small-matrix kernel
        # for few), so rows agree to rounding and in every decision.
        whole = mlp._forward_pass(model, z)[1]
        assert got.shape == whole.shape == (n, 2)
        np.testing.assert_allclose(got, whole, rtol=0, atol=1e-12)
        assert np.array_equal(got.argmax(axis=1), whole.argmax(axis=1))

    def test_non_finite_posterior_is_a_numeric_error(self):
        # A finite model whose products overflow once scored NaN posteriors,
        # whose argmax reads H; now the block is refused, and numpy does
        # not warn on the way.
        model = mlp.init_model((13, 1024, 100, 2))
        model.params[:] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match="non-finite posterior in rows 0 to 255"):
                mlp.predict_batch(model, np.ones((300, 13)))

    def test_memory_does_not_grow_with_the_batch(self):
        # One block's buffers are 2.2 MB on the default net; an unblocked
        # pass over 4096 rows would allocate several 32 MB activations.
        rng = np.random.default_rng(4)
        x = rng.normal(2.0, 3.0, size=(4096, 13))
        model = normalized_default_model(x)
        tracemalloc.start()
        try:
            mlp.predict_batch(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestLoss:
    def test_confident_correct_prediction_has_tiny_loss(self):
        assert mlp.loss(np.array([[1.0, 0.0]]), np.array([0])) == 0.0
        almost = np.array([[1.0 - 1e-9, 1e-9]])
        assert mlp.loss(almost, np.array([0])) < 1e-8

    def test_even_posteriors_give_ln2(self):
        value = mlp.loss(np.array([[0.5, 0.5]]), np.array([0]))
        assert abs(value - math.log(2.0)) < 1e-12

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(6)
        raw = rng.uniform(0.01, 1.0, size=(8, 2))
        posteriors = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 2, size=8)
        expected = 0.0
        for i in range(8):
            expected -= math.log(max(posteriors[i][labels[i]], 1e-12))
        expected /= 8.0
        assert abs(mlp.loss(posteriors, labels) - expected) < 1e-12

    def test_one_hot_labels_rejected(self):
        # One-hot rows would broadcast into a block of picks, not one per row.
        with pytest.raises(DataError, match="one class index per posterior row"):
            mlp.loss(np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([[1, 0], [0, 1]]))

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            mlp.loss(np.zeros((0, 2)), np.zeros(0))


class TestBackward:
    def test_gradients_match_central_differences(self):
        model = mlp.init_model((13, 4, 3, 2), seed=11)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 13))
        y = rng.integers(0, 2, size=6)
        grad_w, grad_b = mlp.backward(model, x, y)
        h = 1e-5
        worst = 0.0
        for param, grad in zip(model.weights + model.biases, grad_w + grad_b):
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                index = it.multi_index
                saved = param[index]
                param[index] = saved + h
                up = mlp.loss(mlp.predict_batch(model, x), y)
                param[index] = saved - h
                down = mlp.loss(mlp.predict_batch(model, x), y)
                param[index] = saved
                numeric = (up - down) / (2.0 * h)
                scale = max(abs(numeric), abs(grad[index]), 1e-8)
                worst = max(worst, abs(numeric - grad[index]) / scale)
        assert worst < 1e-4

    def test_zero_input_zero_weights_zero_input_gradient(self):
        model = zero_model()
        grad_w, _ = mlp.backward(model, np.zeros((4, 13)), np.array([0, 1, 0, 1]))
        assert np.all(grad_w[0] == 0.0)

    def test_duplicated_batch_gives_identical_gradients(self):
        model = mlp.init_model((5, 4, 2), seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 5))
        y = rng.integers(0, 2, size=6)
        gw1, gb1 = mlp.backward(model, x, y)
        gw2, gb2 = mlp.backward(model, np.vstack([x, x]), np.concatenate([y, y]))
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            mlp.backward(zero_model(), np.zeros((0, 13)), np.zeros(0))


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        model = mlp.init_model((4, 3, 2), seed=9)
        before = [w.copy() for w in model.weights] + [b.copy() for b in model.biases]
        state = mlp.AdamState.for_model(model)
        mlp.adam_step(model, state, np.zeros_like(model.params), mlp.TrainConfig())
        after = model.weights + model.biases
        for a, b in zip(before, after):
            assert np.array_equal(a, b)
        assert state.t == 1


def textbook_adam(params, grads, config):
    """Kingma & Ba's Algorithm 1, one operation at a time."""
    b1, b2 = mlp.BETA1, mlp.BETA2
    p = params.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p = p - config.learning_rate * m_hat / (np.sqrt(v_hat) + mlp.ADAM_EPS)
    return p


class TestFlatAdam:
    @pytest.mark.parametrize("config", [
        mlp.TrainConfig(),
        mlp.TrainConfig(learning_rate=0.01),
    ])
    def test_matches_textbook_adam(self, config):
        model = mlp.init_model((6, 5, 2), seed=4)
        rng = np.random.default_rng(8)
        grads = [rng.standard_normal(model.params.size) * rng.uniform(1e-3, 1.0)
                 for _ in range(200)]
        expected = textbook_adam(model.params, grads, config)
        state = mlp.AdamState.for_model(model)
        for g in grads:
            mlp.adam_step(model, state, g, config)
        assert state.t == 200
        np.testing.assert_allclose(model.params, expected, rtol=1e-12, atol=0)

    def test_step_allocates_no_parameter_sized_array(self):
        # Parameter-sized arrays are 936 kB on the default net. The step's only
        # temporaries should scale with the batch: for 16 rows of 1024 units,
        # the first layer's delta (128 kB), its ReLU mask and numpy's
        # bool-to-float cast buffer, about 210 kB in all.
        model = mlp.init_model((13, 1024, 100, 2), seed=0)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((16, 13)), rng.integers(0, 2, size=16)
        state, grad = mlp.AdamState.for_model(model), np.empty_like(model.params)
        config = mlp.TrainConfig()
        pass_ = mlp._forward_pass(model, x)
        mlp._gradients(model, *pass_, y, grad)
        mlp.adam_step(model, state, grad, config)
        tracemalloc.start()
        try:
            mlp._gradients(model, *pass_, y, grad)
            mlp.adam_step(model, state, grad, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < model.params.nbytes // 4


class TestTraining:
    def test_separable_toy_reaches_high_accuracy(self):
        x, y = toy_blobs(100)
        model, history = mlp.train(x, y, mlp.TrainConfig(epochs=20, seed=5),
                                   hidden_dims=(16, 8))
        accuracy = float(np.mean(mlp.predict_batch(model, x).argmax(axis=1) == y))
        assert accuracy >= 0.99
        assert len(history) == 20

    def test_loss_non_increasing_after_warmup(self):
        x, y = toy_blobs(100)
        _, history = mlp.train(x, y, mlp.TrainConfig(epochs=20, seed=5),
                               hidden_dims=(16, 8))
        for earlier, later in zip(history[3:], history[4:]):
            assert later <= earlier + 1e-12

    def test_same_seed_is_bit_identical(self):
        x, y = toy_blobs(60, seed=9)
        config = mlp.TrainConfig(epochs=5, seed=21)
        m1, h1 = mlp.train(x, y, config, hidden_dims=(8, 4))
        m2, h2 = mlp.train(x, y, config, hidden_dims=(8, 4))
        assert h1 == h2
        for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            assert np.array_equal(a, b)

    def test_zero_learning_rate_keeps_initial_weights(self):
        x, y = toy_blobs(40, seed=2)
        config = mlp.TrainConfig(epochs=3, learning_rate=0.0, seed=13)
        trained, _ = mlp.train(x, y, config, hidden_dims=(8, 4))
        fresh = mlp.init_model((2, 8, 4, 2), seed=13)
        for a, b in zip(trained.weights + trained.biases,
                        fresh.weights + fresh.biases):
            assert np.array_equal(a, b)

    def test_zero_epochs_returns_initialization(self):
        x, y = toy_blobs(40, seed=2)
        model, history = mlp.train(x, y, mlp.TrainConfig(epochs=0, seed=13),
                                   hidden_dims=(8, 4))
        assert history == []
        fresh = mlp.init_model((2, 8, 4, 2), seed=13)
        for a, b in zip(model.weights, fresh.weights):
            assert np.array_equal(a, b)

    def test_non_finite_loss_aborts_with_diagnostic(self):
        # Values at the float64 ceiling overflow the z-scoring's mean, so the
        # fit is refused before any forward pass could turn non-finite.
        x = np.full((8, 13), 1.7e308)
        y = np.array([0, 1] * 4)
        with np.errstate(all="ignore"), pytest.raises(DataError, match="finite mean"):
            mlp.train(x, y, mlp.TrainConfig(epochs=2, seed=1),
                      hidden_dims=(1024, 100))

    def test_overflowing_z_scoring_warns_nothing(self):
        # The same refusal with numpy's warnings made errors: fit once let
        # an overflow and an invalid-value RuntimeWarning through first.
        x = np.full((8, 13), 1.7e308)
        y = np.array([0, 1] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="finite mean"):
                mlp.train(x, y, mlp.TrainConfig(epochs=2, seed=1),
                          hidden_dims=(4,))

    def test_diverging_training_aborts_with_diagnostic(self):
        # A learning rate of 1e30 blows the weights up after the first step:
        # the guard must stop training instead of looping on a non-finite loss.
        x = np.random.default_rng(1).standard_normal((64, 13))
        y = np.array([0, 1] * 32)
        with np.errstate(all="ignore"), pytest.raises(
                NumericError, match="training diverged: non-finite loss in "
                                    "epoch 1 at sample offset 32"):
            mlp.train(x, y, mlp.TrainConfig(epochs=2, learning_rate=1e30, seed=1),
                      hidden_dims=(16, 8))

    @pytest.mark.parametrize("mean,std", [
        ([0.0, 0.0], [np.nan, 1.0]), ([0.0, 0.0], [1.0, np.inf]),
        ([np.nan, 0.0], [1.0, 1.0]), ([0.0, -np.inf], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, 0.0]), ([0.0, 0.0], [-1.0, 1.0])])
    def test_z_scoring_needs_finite_mean_and_positive_finite_std(self, mean, std):
        with pytest.raises(DataError, match="finite mean"):
            NormalizationStats(np.array(mean), np.array(std))

    def test_empty_training_set_rejected(self):
        with pytest.raises(DataError):
            mlp.train(np.zeros((0, 13)), np.zeros(0), mlp.TrainConfig())

    def test_features_and_labels_of_other_lengths_rejected(self):
        with pytest.raises(DataError, match="different lengths"):
            mlp.train(np.zeros((4, 13)), np.zeros(3), mlp.TrainConfig())

    def test_z_scoring_shapes_must_agree(self):
        with pytest.raises(DataError, match="shapes differ"):
            NormalizationStats(np.zeros(3), np.ones(4))

    def test_model_dims_and_parameter_count_checked(self):
        with pytest.raises(ConfigError, match="input and an output layer"):
            mlp.MlpModel(dims=(13,), params=np.zeros(0))
        with pytest.raises(ConfigError, match=r"\(29,\) parameters do not fit"):
            mlp.MlpModel(dims=(13, 2), params=np.zeros(29))

    def test_one_row_is_too_few_to_fit_the_z_scoring(self):
        x, y = toy_blobs(10, seed=2)
        with pytest.raises(DataError, match="at least two frames, got 1"):
            mlp.train(x[:1], y[:1], mlp.TrainConfig(epochs=1), hidden_dims=(4,))

    def test_model_stores_the_z_scoring_of_its_training_rows(self):
        x, y = toy_blobs(20, seed=4)
        model, _ = mlp.train(x, y, mlp.TrainConfig(epochs=1), hidden_dims=(4,))
        stats = NormalizationStats.fit(x)
        assert np.array_equal(model.norm_stats.mean, stats.mean)
        assert np.array_equal(model.norm_stats.std, stats.std)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            mlp.TrainConfig(batch_size=0)
        # numpy's seed sequences refuse it later with a ValueError traceback.
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            mlp.TrainConfig(seed=-1)


def subnormal_count(a):
    a = np.abs(a)
    return int(np.count_nonzero((a > 0) & (a < np.finfo(a.dtype).tiny)))


def float32_train_without_flushes(x, y, config, hidden_dims):
    """mlp.train's z-scoring and float32 loop written out without the
    subnormal flushes:
    returns the trained float32 parameters and the subnormal entries seen in
    the output errors over the run and in the final first moments."""
    dims = (x.shape[1],) + hidden_dims + (2,)
    params = mlp.init_model(dims, seed=config.seed).params.astype(np.float32)
    model = mlp.MlpModel(dims=dims, params=params)
    m, v = np.zeros_like(params), np.zeros_like(params)
    stats = NormalizationStats.fit(x)
    x = ((x - stats.mean) / stats.std).astype(np.float32)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 97]))
    b1, b2 = mlp.BETA1, mlp.BETA2
    t = subnormal_deltas = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), config.batch_size):
            rows = order[start : start + config.batch_size]
            inputs, probs = mlp._forward_pass(model, x[rows])
            delta = probs.copy()
            delta[np.arange(len(rows)), y[rows]] -= 1.0
            delta /= len(rows)
            subnormal_deltas += subnormal_count(delta)
            grads = []
            for layer in range(len(dims) - 2, -1, -1):
                grads[:0] = [(inputs[layer].T @ delta).ravel(), delta.sum(axis=0)]
                if layer > 0:
                    delta = delta @ model.weights[layer].T
                    delta *= inputs[layer] > 0
            g = np.concatenate(grads)
            t += 1
            s = math.sqrt((1.0 - b2) / (1.0 - b2 ** t))
            m = b1 * m + g
            v = b2 * v + g * g
            step = m / (np.sqrt(v) + mlp.ADAM_EPS / s)
            params -= step * (config.learning_rate * (1.0 - b1) / ((1.0 - b1 ** t) * s))
    return params, subnormal_deltas, subnormal_count(m)


class TestFloat32Training:
    def test_trained_params_are_widened_float32(self):
        x, y = toy_blobs(40, seed=4)
        model, _ = mlp.train(x, y, mlp.TrainConfig(epochs=2, seed=3),
                             hidden_dims=(8, 4))
        assert model.params.dtype == np.float64
        narrowed = model.params.astype(np.float32)
        assert np.array_equal(narrowed.astype(np.float64), model.params)
        init = mlp.init_model((13, 1024, 100, 2), seed=11).params
        assert init.dtype == np.float64
        assert np.array_equal(init.astype(np.float32).astype(np.float64), init)

    def test_adam_state_follows_params_dtype(self):
        init = mlp.init_model((6, 5, 2), seed=4)
        for dtype in (np.float32, np.float64):
            model = mlp.MlpModel(dims=init.dims, params=init.params.astype(dtype))
            state = mlp.AdamState.for_model(model)
            for array in (state.m, state.v, state.scratch):
                assert array.dtype == dtype
                assert array.shape == model.params.shape
            mlp.adam_step(model, state, np.ones_like(model.params), mlp.TrainConfig())
            assert model.params.dtype == dtype

    def test_saturated_run_flushes_subnormals_without_moving_params(self, monkeypatch):
        # Far-apart blobs and a large step saturate the softmax, so float32
        # output errors underflow, and units that die stop getting gradient
        # while their first moments decay past the float32 normal range.
        # train z-scores the blobs, so their scale does not count; the step does.
        x, y = toy_blobs(64, seed=3)
        config = mlp.TrainConfig(epochs=200, learning_rate=0.1, seed=5)
        last = {}
        adam_step = mlp.adam_step

        def recording_adam_step(model, state, grad, cfg):
            adam_step(model, state, grad, cfg)
            last.update(state=state, grad=grad)

        monkeypatch.setattr(mlp, "adam_step", recording_adam_step)
        model, _ = mlp.train(x, y, config, hidden_dims=(32, 16))
        expected, subnormal_deltas, subnormal_m = float32_train_without_flushes(
            x, y, config, (32, 16))
        assert last["state"].t == 800
        assert subnormal_deltas > 0 and subnormal_m > 0
        for array in (last["grad"], last["state"].m, last["state"].v):
            assert array.dtype == np.float32
            assert subnormal_count(array) == 0
        assert np.array_equal(model.params, expected.astype(np.float64))


class TestModelFile:
    def test_round_trip_preserves_predictions(self, tmp_path):
        stats = NormalizationStats(mean=np.arange(13.0), std=np.ones(13))
        model = mlp.init_model((13, 6, 4, 2), seed=77)
        model.norm_stats = stats
        path = tmp_path / "model.abmm"
        mlp.save_model(model, path)
        loaded = mlp.load_model(path)
        assert loaded.dims == (13, 6, 4, 2)
        assert np.array_equal(loaded.norm_stats.mean, stats.mean)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(13)
            a = mlp.predict_batch(model, x)[0]
            b = mlp.predict_batch(loaded, x)[0]
            assert np.array_equal(a, b)

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(123)
        for trial in range(10):
            dims = (13, int(rng.integers(2, 20)), 2)
            model = mlp.init_model(dims, seed=trial)
            path = tmp_path / f"m{trial}.abmm"
            mlp.save_model(model, path)
            loaded = mlp.load_model(path)
            for a, b in zip(model.weights + model.biases,
                            loaded.weights + loaded.biases):
                assert np.array_equal(a, b)

    def test_layer_arrays_are_views_of_params(self, tmp_path):
        model = mlp.init_model((13, 6, 4, 2), seed=77)
        path = tmp_path / "m.abmm"
        mlp.save_model(model, path)
        for m in (model, mlp.load_model(path)):
            assert m.params.shape == (13 * 6 + 6 + 6 * 4 + 4 + 4 * 2 + 2,)
            for array in m.weights + m.biases:
                assert np.shares_memory(array, m.params)
            m.weights[1][2, 3] = 5.0
            m.biases[2][1] = -7.0
            assert m.params[13 * 6 + 6 + 2 * 4 + 3] == 5.0
            assert m.params[-1] == -7.0

    def test_file_bytes_are_pinned(self, tmp_path):
        # ABMM v3 is a fixed format: magic, <HI version and header length, the
        # sorted-key JSON header, then params, mean and std as <f8.
        model = mlp.init_model((13, 6, 4, 2), seed=77)
        model.norm_stats = NormalizationStats(mean=np.arange(13.0),
                                              std=np.linspace(0.5, 2.0, 13))
        model.mfcc = {"num_coeffs": 13, "band": [42.0, 45.0]}
        path = tmp_path / "m.abmm"
        mlp.save_model(model, path)
        header = (b'{"dims": [13, 6, 4, 2], "mfcc": {"band": [42.0, 45.0], '
                  b'"num_coeffs": 13}}')
        assert path.read_bytes() == (
            b"ABMM" + struct.pack("<HI", 3, len(header)) + header
            + b"".join(a.astype("<f8").tobytes() for a in (
                model.params, model.norm_stats.mean, model.norm_stats.std)))
        assert path.stat().st_size == 1267
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2483bfa5ea86613594ad8b463a2f34503f8f7e7446d6cb1299b65a414fd653d5")

    def test_corrupted_magic_rejected(self, tmp_path):
        path = tmp_path / "m.abmm"
        mlp.save_model(mlp.init_model((4, 3, 2), seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            mlp.load_model(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "m.abmm"
        mlp.save_model(mlp.init_model((4, 3, 2), seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (42).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            mlp.load_model(path)

    def test_too_few_dims_rejected(self, tmp_path):
        path = tmp_path / "m.abmm"
        for dims in ([], [4], "[4, 2]", [4, 0, 2], [4, 2.5, 2]):
            header = json.dumps({"dims": dims, "mfcc": None}).encode()
            path.write_bytes(mlp.MODEL_MAGIC + struct.pack("<HI", 3, len(header))
                             + header + bytes(8 * 10))
            with pytest.raises(FormatError, match="at least 2"):
                mlp.load_model(path)

    @pytest.mark.parametrize("header", [
        {"dims": [4, 2], "mfcc": 5},
        {"dims": [4, 2]}])
    def test_header_types_rejected(self, tmp_path, header):
        # The payload is sized for dims [4, 2] (10 params, 4 means, 4 stds),
        # so only mfcc is wrong.
        path = tmp_path / "m.abmm"
        head = json.dumps(header).encode()
        path.write_bytes(mlp.MODEL_MAGIC + struct.pack("<HI", 3, len(head))
                         + head + np.ones(18, dtype="<f8").tobytes())
        with pytest.raises(FormatError, match="object or null mfcc"):
            mlp.load_model(path)

    def test_v2_model_file_asks_for_a_new_train(self, tmp_path):
        # A v2 file, as its writer left one without z-scoring.
        path = tmp_path / "m.abmm"
        head = json.dumps({"dims": [4, 2], "mfcc": None, "normalized": False}).encode()
        path.write_bytes(mlp.MODEL_MAGIC + struct.pack("<HI", 2, len(head))
                         + head + np.ones(10, dtype="<f8").tobytes())
        with pytest.raises(FormatError, match="version 2 is not the supported 3; re-run train"):
            mlp.load_model(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "m.abmm"
        mlp.save_model(mlp.init_model((4, 3, 2), seed=0), path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FormatError, match="truncated"):
            mlp.load_model(path)
