"""Synthetic generators, metrics, and the train/test split."""

import numpy as np
import pytest

from tensortree.data import (
    GENERATORS,
    Metrics,
    SyntheticSpec,
    evaluate,
    generate,
    interaction_target,
    piecewise_target,
    train_test_split,
)


class TestPiecewiseGenerator:
    def test_shapes(self):
        x, y = generate(SyntheticSpec("prune_fn", n=40, seed=0))
        assert x.shape == (40, 4, 4, 4) and y.shape == (40,)

    def test_signal_values_at_known_points(self):
        x = np.zeros((3, 4, 4, 4))
        x[0, 0, 1, 0] = 0.5
        x[1, 0, 1, 0] = 0.3
        x[1, 2, 2, 0] = 0.7
        x[2, 0, 1, 0] = 0.3
        x[2, 2, 2, 0] = 0.6
        assert np.array_equal(piecewise_target(x), [5.0, -1.0, -4.0])

    def test_signal_range(self):
        x, _ = generate(SyntheticSpec("prune_fn", n=500, seed=1))
        assert set(np.unique(piecewise_target(x))) <= {5.0, -1.0, -4.0}

    def test_noiseless_option(self):
        x, y = generate(SyntheticSpec("prune_fn", n=25, noise_sigma=0.0, seed=2))
        assert np.array_equal(y, piecewise_target(x))

    def test_default_noise_variance(self):
        x, y = generate(SyntheticSpec("prune_fn", n=200000, seed=3))
        resid = y - piecewise_target(x)
        assert np.var(resid) == pytest.approx(0.1, rel=0.02)


class TestInteractionGenerator:
    def test_shapes_and_zero_point(self):
        x, y = generate(SyntheticSpec("fig5_interaction", n=10, seed=4))
        assert x.shape == (10, 5, 4) and y.shape == (10,)
        assert interaction_target(np.zeros((3, 5, 4))).tolist() == [0.0, 0.0, 0.0]

    def test_default_is_noiseless(self):
        x, y = generate(SyntheticSpec("fig5_interaction", n=50, seed=5))
        assert np.array_equal(y, interaction_target(x))

    def test_bounds(self):
        x, _ = generate(SyntheticSpec("fig5_interaction", n=100, seed=6))
        assert x.min() >= -1.0 and x.max() <= 1.0


class TestTable2Generators:
    def test_linear_columns(self):
        x, y = generate(SyntheticSpec("table2_linear", n=3, noise_scale=0.0, seed=7))
        assert x.shape == (3, 3, 4) and y.shape == (3, 15)
        assert np.allclose(y[:, 0], x[:, 0, 1] + x[:, 1, 1], atol=1e-14)
        assert np.allclose(y[:, 1], x[:, 1, 1] + x[:, 2, 0], atol=1e-14)
        assert np.allclose(y[:, 2], x[:, 2, 2] + x[:, 0, 3], atol=1e-14)
        assert np.allclose(y[:, 3], y[:, 0], atol=1e-14)

    def test_nonlinear_columns(self):
        x, y = generate(SyntheticSpec("table2_nonlinear", n=5, noise_scale=0.0, seed=8))
        assert y.shape == (5, 6)
        for i in range(6):
            assert np.allclose(y[:, i], np.sin(x[:, i % 3, i % 4]), atol=1e-14)

    def test_noise_scale_bounds(self):
        x, y = generate(SyntheticSpec("table2_linear", n=2000, seed=9))
        x0, y0 = generate(SyntheticSpec("table2_linear", n=2000, noise_scale=0.0, seed=9))
        noise = y - y0
        assert np.abs(noise).max() <= 0.01
        assert np.abs(noise).max() > 0.001

    @pytest.mark.parametrize("name", ["table2_exact_cp", "table2_exact_tucker"])
    def test_exact_reconstruction_generators(self, name):
        x, y = generate(SyntheticSpec(name, n=30, noise_scale=0.0, seed=10))
        assert x.shape == (30, 12, 6) and y.shape == (30, 7)
        # the seven columns are copies of one reconstructed response
        for i in range(1, 7):
            assert np.array_equal(y[:, 0], y[:, i])


class TestGenerateContract:
    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            generate(SyntheticSpec("nope", n=5))

    def test_registry_is_pluggable(self):
        GENERATORS["only_ones"] = lambda spec: (np.ones((spec.n, 2, 2)), np.ones(spec.n))
        try:
            x, y = generate(SyntheticSpec("only_ones", n=4))
            assert np.array_equal(y, np.ones(4))
        finally:
            del GENERATORS["only_ones"]

    def test_bitwise_reproducible(self):
        a = generate(SyntheticSpec("prune_fn", n=64, seed=11))
        b = generate(SyntheticSpec("prune_fn", n=64, seed=11))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            SyntheticSpec("prune_fn", n=0)

    def test_negative_noise(self):
        with pytest.raises(ValueError):
            SyntheticSpec("prune_fn", n=5, noise_sigma=-1.0)


class TestEvaluate:
    def test_perfect_prediction(self):
        m = evaluate([1.0, 2.0], [1.0, 2.0])
        assert m.mse == 0.0 and m.rmse == 0.0 and m.rpe == 0.0

    def test_zero_predictor_rpe_one(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=17)
        assert evaluate(y, np.zeros(17)).rpe == pytest.approx(1.0, rel=1e-14)

    def test_hand_values(self):
        m = evaluate([3.0, 4.0], [0.0, 0.0])
        assert m.mse == pytest.approx(12.5)
        assert m.rmse == pytest.approx(np.sqrt(12.5))
        assert m.rpe == pytest.approx(1.0)

    def test_rmse_is_sqrt_mse(self):
        rng = np.random.default_rng(13)
        y, p = rng.normal(size=9), rng.normal(size=9)
        m = evaluate(y, p)
        assert m.rmse == pytest.approx(np.sqrt(m.mse), rel=1e-15)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros(3), np.ones(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros(0), np.zeros(0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("truth, pred, match", [
        ([1.0, np.nan], [1.0, 2.0], "reference values contain non-finite"),
        ([1.0, np.inf], [1.0, 2.0], "reference values contain non-finite"),
        ([1.0, 2.0], [np.nan, 2.0], "prediction errors contain non-finite"),
        ([1.0, 2.0], [1.0, -np.inf], "prediction errors contain non-finite"),
        ([1e200, 1.0], [1e200, 1.0], "reference values too large"),
        ([1e150, 1.0], [-1e155, 1.0], "prediction errors too large"),
    ])
    def test_non_finite_or_overflowing_values_rejected(self, truth, pred, match):
        with np.errstate(all="raise"), pytest.raises(ValueError, match=match):
            evaluate(np.array(truth), np.array(pred))


class TestTrainTestSplit:
    def test_disjoint_exhaustive(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(10, 2, 2))
        y = np.arange(10.0)
        x_tr, y_tr, x_te, y_te = train_test_split(x, y, 0.75, seed=1)
        assert sorted(np.concatenate([y_tr, y_te]).tolist()) == y.tolist()
        assert set(y_tr.tolist()).isdisjoint(y_te.tolist())

    def test_sizes_ceil(self):
        x = np.zeros((10, 2, 2))
        y = np.zeros(10)
        x_tr, y_tr, x_te, y_te = train_test_split(x, y, 0.75, seed=2)
        assert len(y_tr) == 8 and len(y_te) == 2

    def test_seed_determinism(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(20, 2, 2))
        y = rng.normal(size=20)
        a = train_test_split(x, y, 0.6, seed=3)
        b = train_test_split(x, y, 0.6, seed=3)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_tensor_response_supported(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(12, 2, 2))
        y = rng.normal(size=(12, 3))
        x_tr, y_tr, x_te, y_te = train_test_split(x, y, 0.5, seed=4)
        assert y_tr.shape[1] == 3 and y_te.shape[1] == 3

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((4, 2, 2)), np.zeros(4), 1.0, seed=0)
