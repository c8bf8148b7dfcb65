"""Leaf predictors: contraction, fitting, fallback and invariants."""

import numpy as np
import pytest

from tensortree._rng import make_rng
from tensortree.decomposition import AlsConfig, _hosvd, _multiply, _normalize_columns
from tensortree.leaf_models import (
    LeafModelSpec,
    contract,
    fit_leaf,
    _parameter_count,
    min_viable_samples,
    predict_leaf,
)
from tensortree.tensor_ops import frobenius_norm, khatri_rao_all


def make_rank1_problem(n, shape, seed, noise=0.0):
    """Generate-then-fit oracle data: y_i = <X_i, B0> with rank-1 B0."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n,) + shape)
    vecs = [rng.normal(size=d) for d in shape]
    b0 = np.multiply.outer(vecs[0], vecs[1]) if len(shape) == 2 else np.einsum(
        "i,j,k->ijk", *vecs
    )
    y = x.reshape(n, -1) @ b0.ravel()
    if noise > 0:
        y = y + rng.normal(0, noise, size=n)
    return x, y, b0


class TestContract:
    def test_indicator_picks_entry(self):
        x = np.arange(6.0).reshape(2, 3)
        b = np.zeros((2, 3))
        b[1, 2] = 1.0
        assert contract(x, b) == x[1, 2]

    def test_zero_coefficient(self):
        assert contract(np.ones((2, 2)), np.zeros((2, 2))) == 0.0

    def test_hand_sum(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.ones((2, 2))
        assert contract(x, b) == 10.0

    def test_stacked_form(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 2, 3))
        b = rng.normal(size=(2, 3))
        got = contract(x, b)
        want = [contract(x[i], b) for i in range(5)]
        assert np.allclose(got, want, atol=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            contract(np.ones((2, 2)), np.ones((2, 3)))


class TestMeanLeaf:
    def test_predicts_mean(self):
        x = np.zeros((3, 2, 2))
        model = fit_leaf(x, [1.0, 2.0, 3.0], LeafModelSpec(kind="mean"))
        assert np.array_equal(predict_leaf(model, x), [2.0, 2.0, 2.0])

    def test_mean_minimizes_sse_over_constants(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 2, 2))
        y = rng.normal(size=20)
        model = fit_leaf(x, y, LeafModelSpec(kind="mean"))
        best = np.sum((y - predict_leaf(model, x)) ** 2)
        for c in np.linspace(y.min() - 1, y.max() + 1, 25):
            assert best <= np.sum((y - c) ** 2) + 1e-12

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 2, 2))
        y = rng.normal(size=10)
        perm = rng.permutation(10)
        m1 = fit_leaf(x, y, LeafModelSpec(kind="mean"))
        m2 = fit_leaf(x[perm], y[perm], LeafModelSpec(kind="mean"))
        assert predict_leaf(m1, x[:3]) == pytest.approx(predict_leaf(m2, x[:3]), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_leaf(np.zeros((0, 2, 2)), np.zeros(0), LeafModelSpec(kind="mean"))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fit_leaf(np.zeros((2, 2, 2)), [np.nan, 1.0], LeafModelSpec(kind="mean"))


class TestCpLeaf:
    def test_noiseless_rank1_training_rmse(self):
        x, y, _ = make_rank1_problem(200, (5, 4), seed=3)
        model = fit_leaf(x, y, LeafModelSpec(kind="cp", rank=1))
        rmse = np.sqrt(np.mean((predict_leaf(model, x) - y) ** 2))
        assert rmse < 1e-4

    def test_noiseless_rank1_out_of_sample(self):
        x, y, b0 = make_rank1_problem(200, (5, 4), seed=4)
        model = fit_leaf(x, y, LeafModelSpec(kind="cp", rank=1))
        rng = np.random.default_rng(99)
        x_new = rng.uniform(-1, 1, size=(50, 5, 4))
        y_new = x_new.reshape(50, -1) @ b0.ravel()
        rmse = np.sqrt(np.mean((predict_leaf(model, x_new) - y_new) ** 2))
        assert rmse < 1e-3

    def test_constant_response_absorbed_by_intercept(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 3, 3))
        model = fit_leaf(x, np.full(30, 7.0), LeafModelSpec(kind="cp", rank=1))
        assert model.intercept == pytest.approx(7.0, abs=1e-6)
        assert frobenius_norm(model.coefficient_tensor()) < 1e-6

    def test_loss_non_increasing_over_sweeps(self):
        x, y, _ = make_rank1_problem(60, (4, 3), seed=6, noise=0.3)
        model = fit_leaf(x, y, LeafModelSpec(kind="cp", rank=2, als=AlsConfig(max_iterations=40)))
        assert np.all(np.diff(model.losses) <= 1e-9)

    def test_rich_class_beats_mean(self):
        # full-rank CP with intercept contains every constant predictor
        x, y, _ = make_rank1_problem(300, (3, 3), seed=7, noise=0.5)
        cp = fit_leaf(x, y, LeafModelSpec(kind="cp", rank=3))
        mean = fit_leaf(x, y, LeafModelSpec(kind="mean"))
        cp_sse = np.sum((y - predict_leaf(cp, x)) ** 2)
        mean_sse = np.sum((y - predict_leaf(mean, x)) ** 2)
        assert cp_sse <= mean_sse + 1e-9

    def test_three_feature_modes(self):
        x, y, _ = make_rank1_problem(300, (3, 3, 2), seed=8)
        model = fit_leaf(x, y, LeafModelSpec(kind="cp", rank=1))
        rmse = np.sqrt(np.mean((predict_leaf(model, x) - y) ** 2))
        assert rmse < 1e-3

    def test_fallback_below_min_viable(self):
        spec = LeafModelSpec(kind="cp", rank=4)
        need = min_viable_samples(spec, (3, 3))
        x = np.random.default_rng(9).normal(size=(need - 1, 3, 3))
        y = np.arange(need - 1, dtype=float)
        model = fit_leaf(x, y, spec)
        assert model.kind == "mean" and model.fell_back
        assert predict_leaf(model, x[:2]) == pytest.approx(y.mean())

    @pytest.mark.parametrize("kind, rank, shape", [
        ("cp", 1, (3, 3)), ("cp", 4, (3, 3)), ("cp", 3, (2, 5, 7)),
        ("tucker", 2, (3, 3)), ("tucker", (1, 2, 3), (4, 4, 4)),
    ])
    def test_min_viable_matches_the_float_formula(self, kind, rank, shape):
        spec = LeafModelSpec(kind=kind, rank=rank)
        params = _parameter_count(spec, shape)
        assert min_viable_samples(spec, shape) == int(np.ceil(max(2.0, params / np.prod(shape) + 1)))

    def test_huge_rank_falls_back_without_overflow(self):
        spec = LeafModelSpec(kind="cp", rank=10 ** 400)
        assert min_viable_samples(spec, (2, 2)) > 10 ** 399
        x, y, _ = make_rank1_problem(20, (2, 2), seed=3)
        assert fit_leaf(x, y, spec).fell_back

    def test_deterministic(self):
        x, y, _ = make_rank1_problem(50, (3, 3), seed=10, noise=0.1)
        spec = LeafModelSpec(kind="cp", rank=2, als=AlsConfig(seed=5))
        p1 = predict_leaf(fit_leaf(x, y, spec), x)
        p2 = predict_leaf(fit_leaf(x, y, spec), x)
        assert np.array_equal(p1, p2)


class TestTuckerLeaf:
    def test_noiseless_recovery(self):
        x, y, _ = make_rank1_problem(200, (4, 3), seed=11)
        model = fit_leaf(x, y, LeafModelSpec(kind="tucker", rank=(1, 1)))
        rmse = np.sqrt(np.mean((predict_leaf(model, x) - y) ** 2))
        assert rmse < 1e-4

    def test_orthonormal_stored_factors(self):
        x, y, _ = make_rank1_problem(150, (4, 4), seed=12, noise=0.2)
        model = fit_leaf(x, y, LeafModelSpec(kind="tucker", rank=2))
        for f in model.coefficient.factors:
            gram = f.T @ f
            assert np.linalg.norm(gram - np.eye(gram.shape[0])) < 1e-8

    def test_int_rank_clamped(self):
        x, y, _ = make_rank1_problem(200, (4, 2), seed=13)
        model = fit_leaf(x, y, LeafModelSpec(kind="tucker", rank=3))
        assert model.coefficient.ranks == (3, 2)

    def test_loss_non_increasing(self):
        x, y, _ = make_rank1_problem(80, (3, 3), seed=14, noise=0.4)
        model = fit_leaf(
            x, y, LeafModelSpec(kind="tucker", rank=(2, 2), als=AlsConfig(max_iterations=30))
        )
        assert np.all(np.diff(model.losses) <= 1e-9)


def reference_sweeps(x, y, spec):
    """The CP or Tucker regression as plain sweeps: each block update stacks a
    fresh design with ``np.hstack`` and solves it with ``np.linalg.lstsq``, and
    each sweep's loss contracts ``x`` with the assembled coefficient tensor."""
    n, shape = x.shape[0], x.shape[1:]
    modes = len(shape)
    rng = make_rng(spec.als.seed)
    if spec.kind == "cp":
        ranks = (spec.rank,) * modes
        factors = [rng.standard_normal((d, spec.rank)) for d in shape]
    else:
        ranks = tuple(min(spec.rank, d) for d in shape)
        factors = [rng.standard_normal((d, r)) for d, r in zip(shape, ranks)]
        core = rng.standard_normal(ranks)
    unfoldings = [np.moveaxis(x, 1 + q, 1).reshape(n, shape[q], -1) for q in range(modes)]

    def solve(phi):
        if spec.intercept:
            theta = np.linalg.lstsq(np.hstack([np.ones((n, 1)), phi]), y, rcond=None)[0]
            return float(theta[0]), theta[1:]
        return 0.0, np.linalg.lstsq(phi, y, rcond=None)[0]

    losses = []
    for _ in range(spec.als.max_iterations):
        for q in range(modes):
            if spec.kind == "cp":
                other = khatri_rao_all(factors[:q] + factors[q + 1:])
            else:
                h = _multiply(core, factors, [p for p in range(modes) if p != q])
                other = np.moveaxis(h, q, 0).reshape(ranks[q], -1).T
            c, coef = solve((unfoldings[q] @ other).reshape(n, -1))
            factors[q] = coef.reshape(shape[q], ranks[q])
        if spec.kind == "cp":
            b = (factors[0] @ khatri_rao_all(factors[1:]).T).reshape(shape)
        else:
            z = x
            for p in range(modes):
                z = np.moveaxis(np.tensordot(z, factors[p], axes=([p + 1], [0])), -1, p + 1)
            c, coef = solve(z.reshape(n, -1))
            core = coef.reshape(ranks)
            b = _multiply(core, factors, range(modes))
        resid = y - c - contract(x, b)
        losses.append(float(np.dot(resid, resid)))
        if len(losses) > 1 and abs(losses[-2] - losses[-1]) <= (
                spec.als.rel_tolerance * max(losses[-2], 1e-30)):
            break
    if spec.kind == "cp":
        return c, _normalize_columns(factors), tuple(losses)
    ortho = _hosvd(b, ranks)
    return c, (_multiply(b, ortho, range(modes), transpose=True), ortho), tuple(losses)


class TestSweepsMatchReference:
    """The fitted sweeps give the bits of :func:`reference_sweeps`."""

    @pytest.mark.parametrize("intercept", [True, False])
    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 2)])
    @pytest.mark.parametrize("kind", ["cp", "tucker"])
    def test_bit_identical(self, kind, shape, intercept):
        rng = np.random.default_rng(len(shape) + 2 * intercept)
        for iterations in (1, 3, 10):
            spec = LeafModelSpec(kind=kind, rank=2, intercept=intercept,
                                 als=AlsConfig(max_iterations=iterations, seed=iterations))
            params = _parameter_count(spec, shape)
            assert min_viable_samples(spec, shape) < params - 4
            # below, at and above the parameter count
            for n in (params - 4, params, params + 10):
                x = rng.uniform(-1.0, 1.0, size=(n,) + shape)
                y = np.sin(3.0 * x.reshape(n, -1)).sum(axis=1) + rng.normal(0.0, 0.1, n)
                model = fit_leaf(x, y, spec)
                c, arrays, losses = reference_sweeps(x, y, spec)
                coef = model.coefficient
                got = (coef.weights, coef.factors) if kind == "cp" else (coef.core, coef.factors)
                assert model.intercept == c and model.losses == losses
                assert len(losses) == iterations or iterations == 10
                assert np.array_equal(got[0], arrays[0])
                assert all(np.array_equal(f, g) for f, g in zip(got[1], arrays[1]))


class TestSpecValidation:
    def test_mean_with_rank_rejected(self):
        with pytest.raises(ValueError):
            LeafModelSpec(kind="mean", rank=2)

    def test_lowrank_without_rank_rejected(self):
        with pytest.raises(ValueError):
            LeafModelSpec(kind="cp")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LeafModelSpec(kind="ridge")

    def test_predict_shape_mismatch(self):
        x = np.zeros((4, 2, 2))
        model = fit_leaf(x, np.ones(4), LeafModelSpec(kind="mean"))
        with pytest.raises(ValueError):
            predict_leaf(model, np.zeros((4, 3, 2)))


class TestRankConfig:
    @pytest.mark.parametrize(
        "kind, rank", [("cp", (2, 2)), ("cp", 0), ("tucker", 0), ("tucker", (2, 0)), ("tucker", ()),
                       ("cp", True), ("tucker", (True, 2))]
    )
    def test_bad_rank_rejected_when_spec_is_built(self, kind, rank):
        with pytest.raises(ValueError, match="rank"):
            LeafModelSpec(kind=kind, rank=rank)

    def test_tucker_tuple_above_extent_rejected(self):
        x, y, _ = make_rank1_problem(30, (3, 3), seed=8)
        with pytest.raises(ValueError, match="extent"):
            fit_leaf(x, y, LeafModelSpec(kind="tucker", rank=(2, 4)))

    def test_tucker_int_rank_clamped_to_extents(self):
        x, y, _ = make_rank1_problem(40, (2, 3), seed=9)
        model = fit_leaf(x, y, LeafModelSpec(kind="tucker", rank=9, als=AlsConfig(max_iterations=3)))
        assert model.coefficient.ranks == (2, 3)

    @pytest.mark.parametrize("where", ["x", "y"])
    def test_non_finite_input_rejected(self, where):
        x, y, _ = make_rank1_problem(20, (2, 2), seed=10)
        if where == "x":
            x[3, 1, 0] = np.inf
        else:
            y[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_leaf(x, y, LeafModelSpec(kind="mean"))
