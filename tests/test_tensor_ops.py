"""Tensor algebra primitives against index-arithmetic oracles."""

import numpy as np
import pytest

from tensortree.tensor_ops import (
    fold,
    frobenius_norm,
    khatri_rao,
    khatri_rao_all,
    mode_product,
    outer,
    unfold,
)


def unfold_oracle(t: np.ndarray, mode: int) -> np.ndarray:
    """Element-by-element unfolding: loop every multi-index explicitly."""
    rest = [d for q, d in enumerate(t.shape) if q != mode]
    out = np.zeros((t.shape[mode], int(np.prod(rest))))
    for idx in np.ndindex(*t.shape):
        others = tuple(idx[q] for q in range(t.ndim) if q != mode)
        col = 0
        for pos, extent in zip(others, rest):
            col = col * extent + pos
        out[idx[mode], col] = t[idx]
    return out


class TestUnfoldFold:
    def test_singleton_mode_gives_column(self):
        t = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(unfold(t, 1), np.array([[1.0], [2.0], [3.0]]))

    def test_mode0_rows_on_2x2x2(self):
        t = np.arange(8.0).reshape(2, 2, 2)
        assert np.array_equal(unfold(t, 0), [[0, 1, 2, 3], [4, 5, 6, 7]])

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4), (2, 3, 2, 2)])
    def test_matches_index_oracle_every_mode(self, shape):
        rng = np.random.default_rng(5)
        t = rng.normal(size=shape)
        for mode in range(len(shape)):
            assert np.array_equal(unfold(t, mode), unfold_oracle(t, mode))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 4), (2, 3, 2, 3)])
    def test_fold_unfold_roundtrip_every_mode(self, shape):
        rng = np.random.default_rng(6)
        t = rng.normal(size=shape)
        for mode in range(len(shape)):
            assert np.array_equal(fold(unfold(t, mode), mode, shape), t)

    def test_fold_scalarish(self):
        t = fold(np.array([[4.0]]), 0, (1, 1))
        assert t.shape == (1, 1) and t[0, 0] == 4.0

    def test_fold_of_known_matrix(self):
        m = np.array([[0.0, 1, 2, 3], [4, 5, 6, 7]])
        assert np.array_equal(fold(m, 0, (2, 2, 2)), np.arange(8.0).reshape(2, 2, 2))

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2)), 2)

    def test_fold_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fold(np.zeros((2, 5)), 0, (2, 2, 2))

    @pytest.mark.parametrize("call, name", [
        (lambda t: unfold(t, 1.5), "mode"),
        (lambda t: unfold(t, True), "mode"),
        (lambda t: unfold(t, "1"), "mode"),
        (lambda t: mode_product(t, np.ones((2, 3)), 1.0), "mode"),
        (lambda t: fold(unfold(t, 0), 0.0, (2, 3, 4)), "mode"),
        (lambda t: fold(unfold(t, 0), 0, (2, 3.5, 4)), "shape"),
        (lambda t: fold(unfold(t, 0), 0, (2, True, 12)), "shape"),
    ], ids=["unfold_float", "unfold_bool", "unfold_str", "mode_product_float", "fold_mode_float",
            "fold_extent_float", "fold_extent_bool"])
    def test_modes_and_extents_must_be_ints(self, call, name):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            call(np.arange(24.0).reshape(2, 3, 4))

    def test_numpy_int_modes_and_extents_accepted(self):
        t = np.arange(24.0).reshape(2, 3, 4)
        m = unfold(t, np.int64(1))
        assert np.array_equal(fold(m, np.int32(1), (np.int64(2), 3, 4)), t)
        assert np.array_equal(mode_product(t, np.eye(3), np.uint8(1)), t)


class TestModeProduct:
    def test_identity_is_identity(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(3, 4, 2))
        for mode in range(3):
            assert np.allclose(mode_product(t, np.eye(t.shape[mode]), mode), t)

    def test_zero_matrix_gives_zero(self):
        t = np.ones((2, 3))
        assert np.array_equal(mode_product(t, np.zeros((5, 2)), 0), np.zeros((5, 3)))

    def test_direct_multiply_oracle(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert np.array_equal(mode_product(t, m, 0), [[2, 4], [9, 12]])

    def test_equals_fold_of_matrix_product(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=(3, 4, 2))
        m = rng.normal(size=(5, 4))
        direct = mode_product(t, m, 1)
        via_unfold = fold(m @ unfold(t, 1), 1, (3, 5, 2))
        assert np.allclose(direct, via_unfold, atol=1e-13)

    def test_linear_in_matrix(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(2, 3, 2))
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        lhs = mode_product(t, 2.0 * a + b, 1)
        rhs = 2.0 * mode_product(t, a, 1) + mode_product(t, b, 1)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mode_product(np.zeros((2, 3)), np.zeros((4, 5)), 0)


def _layouts(shape, seed):
    """The same kind of tensor in C order, F order, transposed and sliced."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=shape)
    wide = rng.normal(size=tuple(2 * d for d in shape))
    return {
        "c": c,
        "f": np.asfortranarray(c),
        "transposed": rng.normal(size=shape[::-1]).T,
        "sliced": wide[tuple(slice(None, None, 2) for _ in shape)],
        "reversed": c[::-1],
    }


class TestTensordotFormulas:
    """``mode_product`` and ``unfold`` give the ``tensordot``/``moveaxis`` bits."""

    @pytest.mark.parametrize("shape", [(5, 3), (4, 3, 5), (3, 4, 2, 5), (7, 4, 4, 4)])
    @pytest.mark.parametrize("layout", ["c", "f", "transposed", "sliced", "reversed"])
    def test_mode_product_bitwise(self, shape, layout):
        t = _layouts(shape, len(shape))[layout]
        rng = np.random.default_rng(9)
        for mode in range(t.ndim):
            d = t.shape[mode]
            for rows in (1, d, d + 3):
                for m in (rng.normal(size=(rows, d)), rng.normal(size=(d, rows)).T):
                    formula = np.moveaxis(np.tensordot(m, t, axes=(1, mode)), 0, mode)
                    assert np.array_equal(mode_product(t, m, mode), formula)

    @pytest.mark.parametrize("shape", [(5, 3), (4, 3, 5), (3, 4, 2, 5)])
    @pytest.mark.parametrize("layout", ["c", "f", "transposed", "sliced", "reversed"])
    def test_unfold_bitwise(self, shape, layout):
        t = _layouts(shape, len(shape))[layout]
        for mode in range(t.ndim):
            formula = np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1)
            assert np.array_equal(unfold(t, mode), formula)


class TestKhatriRao:
    def test_single_column_vectors(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0], [4.0]])
        assert np.array_equal(khatri_rao(a, b), [[3], [4], [6], [8]])

    def test_zero_row_input(self):
        out = khatri_rao(np.zeros((0, 3)), np.ones((2, 3)))
        assert out.shape == (0, 3)

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 2))
        out = khatri_rao(a, b)
        for r in range(2):
            for i in range(2):
                for j in range(3):
                    assert out[i * 3 + j, r] == a[i, r] * b[j, r]

    def test_columns_are_kroneckers(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(2, 4))
        out = khatri_rao(a, b)
        for r in range(4):
            assert np.allclose(out[:, r], np.kron(a[:, r], b[:, r]))

    def test_chain_matches_nested_kron(self):
        rng = np.random.default_rng(8)
        mats = [rng.normal(size=(d, 2)) for d in (2, 3, 2)]
        out = khatri_rao_all(mats)
        for r in range(2):
            expect = np.kron(np.kron(mats[0][:, r], mats[1][:, r]), mats[2][:, r])
            assert np.allclose(out[:, r], expect)

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))


class TestOuter:
    def test_two_singletons(self):
        assert outer([[1.0], [1.0]]).item() == 1.0

    def test_basis_vector_selects_slice(self):
        assert np.array_equal(outer([[1.0, 0.0], [5.0, 7.0]]), [[5, 7], [0, 0]])

    def test_triple_loop_oracle(self):
        v = [np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([1.0, 0.0])]
        t = outer(v)
        assert t.shape == (2, 2, 2)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert t[i, j, k] == v[0][i] * v[1][j] * v[2][k]

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            outer([[1.0], []])

    def test_too_few_vectors_rejected(self):
        with pytest.raises(ValueError):
            outer([[1.0, 2.0]])


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((2, 3))) == 0.0

    def test_single_entry(self):
        assert frobenius_norm(np.array([[3.0]])) == 3.0

    def test_hand_value(self):
        assert frobenius_norm(np.array([[1.0, 2.0, 2.0]])) == pytest.approx(3.0, abs=1e-15)

    def test_equals_vector_two_norm(self):
        rng = np.random.default_rng(9)
        t = rng.normal(size=(3, 2, 4))
        assert frobenius_norm(t) == pytest.approx(np.linalg.norm(t.ravel()), rel=1e-15)
