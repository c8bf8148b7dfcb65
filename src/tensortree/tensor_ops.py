"""Dense multi-way array primitives.

Tensors are plain ``numpy.ndarray`` values in C (row-major) order, 64-bit
floats, with two to four modes.  Wherever a stacked dataset appears, mode
0 is the observation mode.  All operations are pure functions of their
inputs: nothing is mutated, results are freshly allocated, and values can
be shared freely between threads.

Unfolding convention
--------------------
``unfold(t, q)`` maps entry ``(i_0, ..., i_{D-1})`` to row ``i_q`` and the
column obtained by ravelling the remaining indices *in their original
order*, last index fastest (the natural row-major layout).  ``fold``
inverts exactly that layout, and both ALS solvers build their Khatri-Rao
systems against the same convention.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from ._checks import MAX_MODES, _check_array, _check_arrays, _check_int


def _mode_first(ndim: int, mode: int) -> list[int]:
    """Axis order that brings ``mode`` to the front, the others in order."""
    return [mode] + [q for q in range(ndim) if q != mode]


def unfold(tensor, mode: int) -> np.ndarray:
    """Matricize ``tensor`` along ``mode``.

    Parameters
    ----------
    tensor : ndarray
        Input with 2 to 4 modes.
    mode : int
        Mode whose fibers become the rows of the result.

    Returns
    -------
    ndarray
        Matrix of shape ``(tensor.shape[mode], prod(other extents))``;
        columns ravel the remaining modes in original order, last
        fastest.
    """
    t = _check_array(tensor, "tensor", (2, MAX_MODES))
    mode = _check_int(mode, "mode")
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for a {t.ndim}-mode tensor")
    return t.transpose(_mode_first(t.ndim, mode)).reshape(t.shape[mode], -1)


def fold(matrix, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Invert :func:`unfold`: rebuild the tensor of ``shape`` from ``matrix``."""
    m = _check_array(matrix, "matrix", (2, 2))
    mode = _check_int(mode, "mode")
    shape = tuple([_check_int(s, "shape") for s in shape])
    if len(shape) < 2 or len(shape) > MAX_MODES:
        raise ValueError(f"target shape must have 2..{MAX_MODES} modes, got {shape}")
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    rest = tuple(s for q, s in enumerate(shape) if q != mode)
    expected = (shape[mode], int(np.prod(rest)))
    if m.shape != expected:
        raise ValueError(f"matrix shape {m.shape} inconsistent with {shape} at mode {mode}")
    return np.moveaxis(m.reshape((shape[mode],) + rest), 0, mode)


def mode_product(tensor, matrix, mode: int) -> np.ndarray:
    """Multiply ``tensor`` by ``matrix`` along ``mode``.

    Equivalent to ``fold(matrix @ unfold(tensor, mode), mode, new_shape)``
    where the extent of ``mode`` becomes ``matrix.shape[0]``.  It is one
    ``np.dot`` of ``matrix`` with the mode-``mode`` unfolding of ``tensor``,
    the same BLAS call on the same operand layouts that
    ``np.tensordot(matrix, tensor, axes=(1, mode))`` makes, so the result is
    bit for bit that of ``np.moveaxis(np.tensordot(...), 0, mode)``.
    """
    t = _check_array(tensor, "tensor", (2, MAX_MODES))
    m = _check_array(matrix, "matrix", (2, 2))
    mode = _check_int(mode, "mode")
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for a {t.ndim}-mode tensor")
    if m.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix has {m.shape[1]} columns but mode {mode} has extent {t.shape[mode]}"
        )
    axes = _mode_first(t.ndim, mode)
    product = np.dot(m, t.transpose(axes).reshape(t.shape[mode], -1))
    # axis 0 of the product goes back to position ``mode``
    back = list(range(1, mode + 1)) + [0] + list(range(mode + 1, t.ndim))
    return product.reshape([m.shape[0]] + [t.shape[q] for q in axes[1:]]).transpose(back)


def khatri_rao(a, b) -> np.ndarray:
    """Column-wise Kronecker product of two matrices with equal column counts.

    Column ``r`` of the result is ``kron(a[:, r], b[:, r])``; the first
    factor varies slowest, matching the unfolding convention above.
    """
    a = _check_array(a, "matrix", (2, 2))
    b = _check_array(b, "matrix", (2, 2))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column mismatch: {a.shape[1]} vs {b.shape[1]}")
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def khatri_rao_all(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Chain :func:`khatri_rao` over ``matrices`` (earlier ones vary slowest)."""
    if not matrices:
        raise ValueError("need at least one matrix")
    if len(matrices) == 1:
        return _check_array(matrices[0], "matrix", (2, 2))
    return reduce(khatri_rao, matrices)


def outer(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Rank-one tensor from 2 to 4 vectors: ``out[i, j, ...] = v0[i] * v1[j] * ...``."""
    arrays = _check_arrays(vectors, "vector", (1, 1), (2, MAX_MODES))
    if min(arr.size for arr in arrays) == 0:
        raise ValueError("vectors must be nonempty")
    return reduce(np.multiply.outer, arrays)


def frobenius_norm(tensor) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(_check_array(tensor, "tensor", (2, MAX_MODES)).ravel()))
