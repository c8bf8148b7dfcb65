"""Low-rank tensor decompositions fitted by alternating least squares.

Two factorizations are provided: a CP decomposition (weighted sum of
rank-one tensors, unit-norm factor columns) fitted by classic ALS, and a
Tucker decomposition (small dense core multiplied by orthonormal factor
matrices) fitted by orthogonal iteration (HOOI) from an HOSVD start.

Both solvers are deterministic for a fixed input and
:class:`AlsConfig`, record the per-iteration relative reconstruction
errors so callers can verify the descent, and report non-convergence
within the iteration budget through the returned flag, never raised.
CP starts from SVD-based factors whenever the requested rank fits the
mode extent and from seeded-uniform ones otherwise, and each of its
least-squares steps adds a tiny ridge so rank-deficient systems (small
sample groups) stay solvable.  Tucker starts from the truncated HOSVD
and solves no least-squares system: each factor is a leading singular
subspace.  Both starts cover only the modes after the first: the first
sweep forms the mode-0 factor before anything reads it, so a mode-0
start would be computed and thrown away unread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import (MAX_MODES, _check_array, _check_arrays, _check_int, _check_number, _check_rank, _check_squares,
                      _resolve_ranks)
from ._rng import make_rng
from .tensor_ops import frobenius_norm, khatri_rao_all, mode_product, unfold

RIDGE = 1e-12


@dataclass(frozen=True)
class AlsConfig:
    """Stopping and seeding policy for the alternating solvers.

    ``max_iterations`` is the hard sweep budget; the solver also stops
    early once the change in relative reconstruction error drops below
    ``rel_tolerance``.  ``seed`` keys the random fallback initialization.
    """

    max_iterations: int = 100
    rel_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int(self.max_iterations, "max_iterations", 1)
        _check_int(self.seed, "seed")
        _check_number(self.rel_tolerance, "rel_tolerance", "[0, inf)")


@dataclass(frozen=True)
class AlsInfo:
    """Fit diagnostics: convergence flag and per-iteration relative errors."""

    converged: bool
    errors: tuple[float, ...]


@dataclass(frozen=True)
class CPDecomposition:
    """Weighted sum of rank-one tensors.

    ``factors[q]`` has shape ``(extent(q), rank)`` with unit-norm columns;
    ``weights[r]`` carries the scale of the r-th rank-one component.
    """

    weights: np.ndarray
    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _check_array(self.weights, "CP weights", (1, 1)))
        object.__setattr__(self, "factors", _check_arrays(self.factors, "factor", (2, 2), (2, MAX_MODES)))

    @property
    def rank(self) -> int:
        return int(self.weights.size)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def to_tensor(self) -> np.ndarray:
        lead = self.factors[0] * self.weights
        rest = khatri_rao_all(self.factors[1:])
        return (lead @ rest.T).reshape(self.shape)


@dataclass(frozen=True)
class TuckerDecomposition:
    """Core tensor multiplied along each mode by an orthonormal factor.

    ``core`` has shape ``ranks``; ``factors[q]`` has shape
    ``(extent(q), ranks[q])`` with orthonormal columns.
    """

    core: np.ndarray
    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "core", _check_array(self.core, "Tucker core", (2, MAX_MODES)))
        object.__setattr__(self, "factors", _check_arrays(self.factors, "factor", (2, 2), (2, MAX_MODES)))

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(self.core.shape)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def to_tensor(self) -> np.ndarray:
        return _multiply(self.core, self.factors, range(len(self.factors)))


def _multiply(t: np.ndarray, factors: Sequence[np.ndarray], modes, transpose: bool = False):
    """``t`` times ``factors[q]`` (or its transpose) along each mode ``q`` in ``modes``, in turn."""
    for q in modes:
        t = mode_product(t, factors[q].T if transpose else factors[q], q)
    return t


def _leading_left_singular(m: np.ndarray, r: int) -> np.ndarray:
    """First ``r`` left singular vectors of ``m``; requires ``r <= m.shape[0]``."""
    if r <= min(m.shape):
        u, _, _ = np.linalg.svd(m, full_matrices=False)
    else:
        u, _, _ = np.linalg.svd(m, full_matrices=True)
    return u[:, :r]


def _normalize_columns(factors: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Pull column scales out of ``factors`` into a weight vector.

    Zero columns get weight 0 and are replaced by a unit basis vector so
    the unit-norm column invariant holds for every component.
    """
    rank = factors[0].shape[1]
    weights = np.ones(rank)
    out = []
    for f in factors:
        norms = np.linalg.norm(f, axis=0)
        g = f.copy()
        for r in range(rank):
            if norms[r] > 0:
                g[:, r] /= norms[r]
            else:
                g[:, r] = 0.0
                g[0, r] = 1.0
        weights *= norms
        out.append(g)
    return weights, out


def _als_input(tensor) -> tuple[np.ndarray, float]:
    """``tensor`` checked as :func:`cp_als` describes it, and its Frobenius norm."""
    t = _check_array(tensor, "tensor", (2, MAX_MODES))
    if t.size == 0:
        raise ValueError(f"cannot decompose a tensor with an empty mode, got shape {t.shape}")
    with np.errstate(over="ignore"):
        norm_t = frobenius_norm(t)
    _check_squares(t, norm_t, "tensor entries")
    return t, norm_t


def cp_als(tensor, rank: int, config: AlsConfig | None = None) -> tuple[CPDecomposition, AlsInfo]:
    """Fit a rank-``rank`` CP decomposition of ``tensor`` by ALS.

    Parameters
    ----------
    tensor : ndarray
        2- to 4-mode array of finite real numbers, with no empty mode,
        whose squares sum to a finite value; else ``ValueError`` before
        any solve.
    rank : int
        Number of rank-one components, >= 1.
    config : AlsConfig, optional
        Iteration budget, tolerance and seed; defaults to ``AlsConfig()``.

    Returns
    -------
    (CPDecomposition, AlsInfo)
        The fitted decomposition and the per-iteration relative
        reconstruction errors with a convergence flag.

    Notes
    -----
    Factor matrices start from the leading left singular vectors of each
    mode unfolding when the rank fits the mode extent, and from
    seeded-uniform columns otherwise.  The start covers only the modes
    after the first, and the first sweep forms mode 0 from them; when the
    rank exceeds the mode-0 extent, its uniform draw is still taken, so
    later modes draw what they would after a full start.  Each mode
    update solves the normal equations with a ``1e-12`` ridge, so the
    recorded error sequence is non-increasing up to that jitter.
    """
    t, norm_t = _als_input(tensor)
    _check_rank(rank, "cp")
    cfg = config or AlsConfig()
    if norm_t == 0.0:
        weights, unit_factors = _normalize_columns([np.zeros((d, rank)) for d in t.shape])
        decomp = CPDecomposition(weights=weights, factors=tuple(unit_factors))
        return decomp, AlsInfo(converged=True, errors=(0.0,))

    rng = make_rng(cfg.seed)
    unfoldings = [unfold(t, q) for q in range(t.ndim)]
    # the first sweep forms mode 0 from the other modes, so its start and
    # Gram are never read; only its draw is taken, to keep later draws in step
    factors: list = [None]
    if rank > t.shape[0]:
        rng.uniform(size=(t.shape[0], rank))
    for q in range(1, t.ndim):
        if rank <= t.shape[q]:
            factors.append(_leading_left_singular(unfoldings[q], rank))
        else:
            factors.append(rng.uniform(size=(t.shape[q], rank)))
    grams = [None] + [f.T @ f for f in factors[1:]]
    eye = np.eye(rank)

    errors: list[float] = []
    converged = False
    for _ in range(cfg.max_iterations):
        for q in range(t.ndim):
            others = factors[:q] + factors[q + 1 :]
            w = khatri_rao_all(others)
            v = np.ones((rank, rank))
            for p, g in enumerate(grams):
                if p != q:
                    v = v * g
            rhs = unfoldings[q] @ w
            # lstsq tolerates the singular Gram matrices that arise when
            # the rank exceeds what a small sample group supports
            factors[q] = np.linalg.lstsq(v + RIDGE * eye, rhs.T, rcond=None)[0].T
            grams[q] = factors[q].T @ factors[q]
        lead = factors[0] @ khatri_rao_all(factors[1:]).T
        err = float(np.linalg.norm(unfoldings[0] - lead) / norm_t)
        errors.append(err)
        if len(errors) >= 2 and abs(errors[-2] - errors[-1]) < cfg.rel_tolerance:
            converged = True
            break

    weights, unit_factors = _normalize_columns(factors)
    decomp = CPDecomposition(weights=weights, factors=tuple(unit_factors))
    return decomp, AlsInfo(converged=converged, errors=tuple(errors))


def _hosvd(t: np.ndarray, ranks: Sequence[int]) -> list[np.ndarray]:
    return [_leading_left_singular(unfold(t, q), r) for q, r in enumerate(ranks)]


def tucker_als(
    tensor, ranks: int | Sequence[int], config: AlsConfig | None = None
) -> tuple[TuckerDecomposition, AlsInfo]:
    """Fit a Tucker decomposition of ``tensor`` at per-mode ``ranks`` by HOOI.

    Parameters
    ----------
    tensor : ndarray
        As for :func:`cp_als`.
    ranks : int or sequence of int
        One rank per mode, each in ``[1, extent(mode)]``; an int ``>= 1``
        is clamped to each mode's extent.
    config : AlsConfig, optional
        Same stopping contract as :func:`cp_als`.

    Returns
    -------
    (TuckerDecomposition, AlsInfo)

    Notes
    -----
    Starts from the truncated HOSVD of the modes after the first, then
    repeatedly re-extracts each factor as the leading singular subspace
    of the tensor contracted by all other factors; the first sweep forms
    mode 0 from that start.  Factors stay orthonormal by construction and
    the recorded error sequence is non-increasing.  A sweep carries the
    tensor projected on the modes it has already updated, so mode ``q``
    multiplies only by the factors after ``q``; once the last mode is
    updated that projection is the sweep's core.
    """
    t, norm_t = _als_input(tensor)
    if not isinstance(ranks, (int, np.integer)):
        ranks = tuple(ranks)
    _check_rank(ranks, "tucker", "rank")
    ranks = _resolve_ranks(ranks, t.shape)
    cfg = config or AlsConfig()
    if norm_t == 0.0:
        factors = tuple(np.eye(t.shape[q], r) for q, r in enumerate(ranks))
        return (
            TuckerDecomposition(core=np.zeros(ranks), factors=factors),
            AlsInfo(converged=True, errors=(0.0,)),
        )

    # the HOSVD start of the modes after the first: the first sweep forms
    # mode 0 from them, so a mode-0 start would never be read
    factors = [None] + [_leading_left_singular(unfold(t, q), ranks[q]) for q in range(1, t.ndim)]
    errors: list[float] = []
    converged = False
    for _ in range(cfg.max_iterations):  # at least one sweep: AlsConfig checks the budget
        projected = t  # t times the transposes of the factors updated so far
        for q in range(t.ndim):
            partial = _multiply(projected, factors, range(q + 1, t.ndim), transpose=True)
            factors[q] = _leading_left_singular(unfold(partial, q), ranks[q])
            projected = _multiply(projected, factors, (q,), transpose=True)
        decomp = TuckerDecomposition(core=projected, factors=tuple(factors))
        err = float(frobenius_norm(t - decomp.to_tensor()) / norm_t)
        errors.append(err)
        if len(errors) >= 2 and abs(errors[-2] - errors[-1]) < cfg.rel_tolerance:
            converged = True
            break

    return decomp, AlsInfo(converged=converged, errors=tuple(errors))


def approximation_error(tensor, decomposition) -> float:
    """Squared Frobenius norm of ``decomposition.to_tensor() - tensor``."""
    t = _check_array(tensor, "tensor", (2, MAX_MODES))
    recon = decomposition.to_tensor()
    if recon.shape != t.shape:
        raise ValueError(f"shape mismatch: tensor {t.shape} vs decomposition {recon.shape}")
    diff = recon - t
    return float(np.dot(diff.ravel(), diff.ravel()))
