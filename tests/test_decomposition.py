"""CP-ALS and Tucker-HOOI: recovery, descent, determinism, conventions."""

import numpy as np
import pytest

from tensortree import decomposition
from tensortree._rng import make_rng
from tensortree.decomposition import (
    AlsConfig,
    CPDecomposition,
    TuckerDecomposition,
    approximation_error,
    cp_als,
    tucker_als,
)
from tensortree.tensor_ops import frobenius_norm, khatri_rao_all, mode_product, outer


def random_cp_tensor(shape, rank, seed):
    """Construct-then-decompose oracle input: a tensor of known CP rank."""
    rng = np.random.default_rng(seed)
    factors = [rng.normal(size=(d, rank)) for d in shape]
    t = np.zeros(shape)
    for r in range(rank):
        t += outer([f[:, r] for f in factors])
    return t


def random_tucker_tensor(shape, ranks, seed):
    """A tensor that is exactly a small core times orthonormal factors."""
    rng = np.random.default_rng(seed)
    core = rng.normal(size=ranks)
    t = core
    for q, (d, r) in enumerate(zip(shape, ranks)):
        q_mat, _ = np.linalg.qr(rng.normal(size=(d, r)))
        t = mode_product(t, q_mat, q)
    return t


class TestCpAls:
    def test_rank1_outer_recovered(self):
        t = outer([[1.0, 2.0], [1.0, 1.0], [1.0, 0.0]])
        decomp, info = cp_als(t, 1)
        assert approximation_error(t, decomp) / frobenius_norm(t) ** 2 < 1e-16
        assert info.errors[-1] < 1e-8

    def test_zero_tensor(self):
        decomp, info = cp_als(np.zeros((3, 2, 2)), 2)
        assert np.array_equal(decomp.weights, np.zeros(2))
        assert info.converged
        assert approximation_error(np.zeros((3, 2, 2)), decomp) == 0.0

    def test_exact_rank_recovery(self):
        # rank = product of the non-largest extents makes the CP class
        # rich enough to reproduce the tensor exactly
        rng = np.random.default_rng(11)
        t = rng.normal(size=(7, 3, 2))
        decomp, _ = cp_als(t, 6, AlsConfig(max_iterations=300, rel_tolerance=1e-14, seed=1))
        rel = np.sqrt(approximation_error(t, decomp)) / frobenius_norm(t)
        assert rel < 1e-6

    def test_error_sequence_non_increasing(self):
        t = random_cp_tensor((6, 5, 4), 3, seed=12) + 0.01 * np.random.default_rng(1).normal(
            size=(6, 5, 4)
        )
        _, info = cp_als(t, 2, AlsConfig(max_iterations=60))
        diffs = np.diff(info.errors)
        assert np.all(diffs <= 1e-10)

    def test_deterministic_bitwise(self):
        t = random_cp_tensor((5, 4, 3), 2, seed=13)
        cfg = AlsConfig(max_iterations=25, rel_tolerance=0.0, seed=42)
        d1, _ = cp_als(t, 4, cfg)
        d2, _ = cp_als(t, 4, cfg)
        assert np.array_equal(d1.weights, d2.weights)
        for a, b in zip(d1.factors, d2.factors):
            assert np.array_equal(a, b)

    def test_unit_norm_columns(self):
        t = random_cp_tensor((6, 4, 3), 2, seed=14)
        decomp, _ = cp_als(t, 3)
        for f in decomp.factors:
            assert np.allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-10)

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            cp_als(np.ones((2, 2)), 0)

    def test_non_finite_rejected(self):
        t = np.ones((2, 2))
        t[0, 0] = np.nan
        with pytest.raises(ValueError):
            cp_als(t, 1)


@pytest.mark.parametrize("fit, rank", [(cp_als, 2), (tucker_als, 2), (tucker_als, (1, 2, 2))])
@pytest.mark.parametrize("shape", [(0, 3, 4), (3, 0, 4), (3, 4, 0)])
def test_als_refuses_an_empty_mode_before_any_solve(fit, rank, shape, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "lstsq", no_svd)
    with pytest.raises(ValueError, match="empty mode"):
        fit(np.zeros(shape), rank)


@pytest.mark.parametrize("fit, rank", [(cp_als, 1), (tucker_als, 1), (tucker_als, (2, 2))])
@pytest.mark.parametrize("value, match", [(1e200, "too large"), (np.inf, "non-finite"),
                                          (np.nan, "non-finite")])
def test_als_refuses_values_whose_squares_overflow_before_any_solve(fit, rank, value, match,
                                                                    monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "lstsq", no_svd)
    t = np.ones((3, 3))
    t[1, 2] = value
    with np.errstate(all="raise"), pytest.raises(ValueError, match=match):
        fit(t, rank)


class TestTuckerAls:
    def test_full_rank_lossless(self):
        rng = np.random.default_rng(21)
        t = rng.normal(size=(4, 3, 2))
        decomp, info = tucker_als(t, (4, 3, 2))
        assert info.errors[-1] < 1e-10

    def test_exact_core_recovery(self):
        t = random_tucker_tensor((8, 6, 5), (3, 2, 2), seed=22)
        decomp, _ = tucker_als(t, (3, 2, 2))
        rel = np.sqrt(approximation_error(t, decomp)) / frobenius_norm(t)
        assert rel < 1e-8

    def test_zero_tensor_zero_core(self):
        decomp, info = tucker_als(np.zeros((3, 3, 2)), (2, 2, 1))
        assert np.array_equal(decomp.core, np.zeros((2, 2, 1)))
        assert info.converged

    def test_factor_orthonormality(self):
        rng = np.random.default_rng(23)
        t = rng.normal(size=(6, 5, 4))
        decomp, _ = tucker_als(t, (3, 2, 2))
        for f in decomp.factors:
            gram = f.T @ f
            assert np.linalg.norm(gram - np.eye(gram.shape[0])) < 1e-8

    def test_error_sequence_non_increasing(self):
        rng = np.random.default_rng(24)
        t = rng.normal(size=(6, 5, 4))
        _, info = tucker_als(t, (3, 3, 2), AlsConfig(max_iterations=50))
        assert np.all(np.diff(info.errors) <= 1e-10)

    def test_rank_exceeding_extent_rejected(self):
        with pytest.raises(ValueError):
            tucker_als(np.ones((2, 3)), (3, 2))

    @pytest.mark.parametrize("rank, ranks", [
        (2, (2, 2, 2)), (4, (4, 3, 4)), (np.int64(3), (3, 3, 3)), (np.array([2, 3, 2]), (2, 3, 2)),
        (range(1, 4), (1, 2, 3)),
    ])
    def test_int_rank_is_the_clamped_tuple(self, rank, ranks):
        t = np.random.default_rng(26).normal(size=(5, 3, 4))
        (d_int, info_int), (d_tuple, info_tuple) = tucker_als(t, rank), tucker_als(t, ranks)
        assert np.array_equal(d_int.core, d_tuple.core)
        assert all(np.array_equal(a, b) for a, b in zip(d_int.factors, d_tuple.factors))
        assert info_int == info_tuple

    @pytest.mark.parametrize("rank", [0, -1, (2, 0, 2), True])
    def test_non_positive_rank_rejected(self, rank):
        with pytest.raises(ValueError, match="rank"):
            tucker_als(np.ones((3, 3, 3)), rank)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(25)
        t = rng.normal(size=(5, 4, 3))
        d1, _ = tucker_als(t, (2, 2, 2))
        d2, _ = tucker_als(t, (2, 2, 2))
        assert np.array_equal(d1.core, d2.core)
        for a, b in zip(d1.factors, d2.factors):
            assert np.array_equal(a, b)


def _leading_subspace(m, r):
    u = np.linalg.svd(m, full_matrices=r > min(m.shape))[0]
    return u[:, :r]


def naive_hooi(t, ranks, cfg):
    """HOOI written out in full: each mode multiplies by every other factor's
    transpose, and each sweep forms its core from all factors."""
    unfold = lambda a, q: np.moveaxis(a, q, 0).reshape(a.shape[q], -1)  # noqa: E731
    factors = [_leading_subspace(unfold(t, q), r) for q, r in enumerate(ranks)]
    norm_t = frobenius_norm(t)
    errors, converged = [], False
    for _ in range(cfg.max_iterations):
        for q in range(t.ndim):
            partial = t
            for p in range(t.ndim):
                if p != q:
                    partial = mode_product(partial, factors[p].T, p)
            factors[q] = _leading_subspace(unfold(partial, q), ranks[q])
        core = t
        for q in range(t.ndim):
            core = mode_product(core, factors[q].T, q)
        recon = core
        for q in range(t.ndim):
            recon = mode_product(recon, factors[q], q)
        errors.append(float(frobenius_norm(t - recon) / norm_t))
        if len(errors) >= 2 and abs(errors[-2] - errors[-1]) < cfg.rel_tolerance:
            converged = True
            break
    return core, factors, errors, converged


class TestTuckerPartialProducts:
    @pytest.mark.parametrize("shape", [(6, 5), (5, 4, 3), (4, 3, 5, 3)])
    @pytest.mark.parametrize("ranks", ["uniform", "per-mode"])
    @pytest.mark.parametrize("budget", [1, 3, 50])
    def test_matches_naive_hooi_bitwise(self, shape, ranks, budget):
        t = np.random.default_rng(len(shape) * 100 + budget).normal(size=shape)
        ranks = (2,) * len(shape) if ranks == "uniform" else tuple(max(1, d - 2) for d in shape)
        cfg = AlsConfig(max_iterations=budget)
        decomp, info = tucker_als(t, ranks, cfg)
        core, factors, errors, converged = naive_hooi(t, ranks, cfg)
        assert np.array_equal(decomp.core, core)
        assert all(np.array_equal(a, b) for a, b in zip(decomp.factors, factors))
        assert info.errors == tuple(errors)
        assert info.converged == converged

    @pytest.mark.parametrize("shape, products", [((4, 3, 5), 9), ((4, 3, 5, 3), 14)])
    def test_one_sweep_mode_products(self, monkeypatch, shape, products):
        # per mode: the products after it plus one to extend the projection,
        # then one per mode to reconstruct; no separate core
        calls = []

        def counted(*args):
            calls.append(args[2])
            return mode_product(*args)

        monkeypatch.setattr(decomposition, "mode_product", counted)
        t = np.random.default_rng(26).normal(size=shape)
        tucker_als(t, (2,) * len(shape), AlsConfig(max_iterations=1, rel_tolerance=0.0))
        assert len(calls) == products


def naive_cp_als(t, rank, cfg):
    """CP-ALS written out in full: every mode gets a start, mode 0 included,
    and every mode update reads its unfolding afresh."""
    unfold = lambda a, q: np.moveaxis(a, q, 0).reshape(a.shape[q], -1)  # noqa: E731
    norm_t = frobenius_norm(t)
    if norm_t == 0.0:
        factors = [np.zeros((d, rank)) for d in t.shape]
        for f in factors:
            f[0] = 1.0
        return np.zeros(rank), factors, [0.0], True
    rng = make_rng(cfg.seed)
    factors = [
        _leading_subspace(unfold(t, q), rank) if rank <= d else rng.uniform(size=(d, rank))
        for q, d in enumerate(t.shape)
    ]
    grams = [f.T @ f for f in factors]
    errors, converged = [], False
    for _ in range(cfg.max_iterations):
        for q in range(t.ndim):
            w = khatri_rao_all(factors[:q] + factors[q + 1:])
            v = np.ones((rank, rank))
            for p, g in enumerate(grams):
                if p != q:
                    v = v * g
            rhs = unfold(t, q) @ w
            v = v + decomposition.RIDGE * np.eye(rank)
            factors[q] = np.linalg.lstsq(v, rhs.T, rcond=None)[0].T
            grams[q] = factors[q].T @ factors[q]
        lead = factors[0] @ khatri_rao_all(factors[1:]).T
        errors.append(float(np.linalg.norm(unfold(t, 0) - lead) / norm_t))
        if len(errors) >= 2 and abs(errors[-2] - errors[-1]) < cfg.rel_tolerance:
            converged = True
            break
    weights, factors = decomposition._normalize_columns(factors)
    return weights, factors, errors, converged


class TestStartsSkipModeZero:
    @pytest.mark.parametrize("shape, rank", [
        ((6, 5), 2), ((5, 4, 3), 3), ((4, 3, 5, 3), 2),
        ((2, 5, 4), 3),  # rank above the mode-0 extent: a seeded-uniform start
        ((2, 2, 5), 3), ((2, 3, 2, 5), 3),  # ... and above a later mode's too
    ])
    @pytest.mark.parametrize("budget", [1, 3, 50])
    def test_cp_matches_naive_cp_als_bitwise(self, shape, rank, budget):
        t = np.random.default_rng(len(shape) * 10 + rank).normal(size=shape)
        cfg = AlsConfig(max_iterations=budget, seed=budget)
        decomp, info = cp_als(t, rank, cfg)
        weights, factors, errors, converged = naive_cp_als(t, rank, cfg)
        assert np.array_equal(decomp.weights, weights)
        assert all(np.array_equal(a, b) for a, b in zip(decomp.factors, factors))
        assert info.errors == tuple(errors)
        assert info.converged == converged

    @pytest.mark.parametrize("rank", [1, 4])
    def test_cp_zero_tensor_matches_naive(self, rank):
        t = np.zeros((3, 2, 2))
        decomp, info = cp_als(t, rank)
        weights, factors, errors, converged = naive_cp_als(t, rank, AlsConfig())
        assert np.array_equal(decomp.weights, weights)
        assert all(np.array_equal(a, b) for a, b in zip(decomp.factors, factors))
        assert info.errors == tuple(errors) and info.converged == converged

    @pytest.mark.parametrize("fit, svds", [(tucker_als, 3 + 4), (cp_als, 3)])
    def test_four_mode_start_skips_mode_zero(self, monkeypatch, fit, svds):
        # starts for modes 1-3 only; one HOOI sweep then takes one SVD per
        # mode, while a CP sweep takes none
        rows = []

        def counted(m, r):
            rows.append(m.shape[0])
            return leading(m, r)

        leading = decomposition._leading_left_singular
        monkeypatch.setattr(decomposition, "_leading_left_singular", counted)
        shape = (6, 3, 4, 5)
        t = np.random.default_rng(27).normal(size=shape)
        fit(t, 2, AlsConfig(max_iterations=1, rel_tolerance=0.0))
        assert len(rows) == svds
        assert rows[:3] == list(shape[1:])


class TestReconstructAndError:
    def test_zero_weight_cp_reconstructs_zero(self):
        factors = (np.eye(3, 2), np.eye(4, 2))
        decomp = CPDecomposition(weights=np.zeros(2), factors=factors)
        assert np.array_equal(decomp.to_tensor(), np.zeros((3, 4)))

    def test_cp_roundtrip_full_rank(self):
        rng = np.random.default_rng(31)
        t = rng.normal(size=(6, 3, 2))
        decomp, _ = cp_als(t, 6, AlsConfig(max_iterations=300, rel_tolerance=1e-14))
        rel = frobenius_norm(decomp.to_tensor() - t) / frobenius_norm(t)
        assert rel < 1e-6

    def test_tucker_identity_factors(self):
        rng = np.random.default_rng(32)
        t = rng.normal(size=(3, 4))
        decomp = TuckerDecomposition(core=t, factors=(np.eye(3), np.eye(4)))
        assert np.array_equal(decomp.to_tensor(), t)

    def test_exact_decomposition_zero_error(self):
        t = random_tucker_tensor((5, 4, 3), (2, 2, 2), seed=33)
        decomp, _ = tucker_als(t, (2, 2, 2))
        assert approximation_error(t, decomp) < 1e-16 * frobenius_norm(t) ** 2 + 1e-20

    def test_zero_decomposition_error_is_squared_norm(self):
        rng = np.random.default_rng(34)
        t = rng.normal(size=(3, 3))
        decomp = CPDecomposition(weights=np.zeros(1), factors=(np.eye(3, 1), np.eye(3, 1)))
        assert approximation_error(t, decomp) == pytest.approx(frobenius_norm(t) ** 2, rel=1e-14)

    def test_error_matches_direct_evaluation(self):
        rng = np.random.default_rng(35)
        t = rng.normal(size=(4, 3, 2))
        decomp, _ = cp_als(t, 1)
        direct = frobenius_norm(decomp.to_tensor() - t) ** 2
        assert approximation_error(t, decomp) == pytest.approx(direct, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        decomp, _ = cp_als(np.ones((2, 2)), 1)
        with pytest.raises(ValueError):
            approximation_error(np.ones((3, 2)), decomp)
