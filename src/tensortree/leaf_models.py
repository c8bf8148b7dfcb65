"""Per-region predictors for scalar responses.

Three leaf families are supported: the sample mean, and low-rank linear
regressions whose coefficient tensor is constrained to a CP or Tucker
factorization over the feature modes.  The low-rank fits alternate exact
minimum-norm least-squares updates over the factor blocks (and the core,
for Tucker), so the training loss is non-increasing sweep to sweep.  A
scalar intercept is fitted jointly with every block update.

Leaves holding fewer samples than the factorization can support fall
back to the mean model; the fallback is recorded on the fitted model
rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import (MAX_MODES, _check_array, _check_bool, _check_choice, _check_features, _check_rank,
                      _check_stacked, _finite_predictions, _resolve_ranks)
from ._rng import make_rng
from .decomposition import (
    AlsConfig,
    CPDecomposition,
    TuckerDecomposition,
    _hosvd,
    _multiply,
    _normalize_columns,
)
from .tensor_ops import khatri_rao_all


@dataclass(frozen=True)
class LeafModelSpec:
    """Which leaf family to fit and how.

    ``rank`` is an int >= 1 for CP, and an int >= 1 or a per-feature-mode
    tuple for Tucker (an int is clamped to each mode extent, a tuple entry
    must not exceed it); it must be None for the mean model.
    """

    kind: str = "mean"
    rank: int | tuple[int, ...] | None = None
    als: AlsConfig = field(default_factory=AlsConfig)
    intercept: bool = True

    def __post_init__(self) -> None:
        _check_choice(self.kind, ("mean", "cp", "tucker"), "leaf kind")
        if self.kind == "mean" and self.rank is not None:
            raise ValueError("mean leaves take no rank")
        if self.kind != "mean":
            _check_rank(self.rank, self.kind)
        _check_bool(self.intercept, "intercept")


@dataclass
class FittedLeafModel:
    """A fitted leaf: constant mean, or intercept plus coefficient tensor."""

    kind: str
    feature_shape: tuple[int, ...]
    n_samples: int
    mean: float | None = None
    intercept: float = 0.0
    coefficient: CPDecomposition | TuckerDecomposition | None = None
    fell_back: bool = False
    losses: tuple[float, ...] = ()

    def coefficient_tensor(self) -> np.ndarray | None:
        return None if self.coefficient is None else self.coefficient.to_tensor()


def contract(x, b):
    """Sum of the elementwise product of ``x`` and ``b``.

    ``x`` may be a single tensor with ``b``'s shape (returns a float) or
    a stack of them with one extra leading mode (returns a vector).
    """
    x = _check_array(x, "x", (2, MAX_MODES))
    b = _check_array(b, "b", (2, MAX_MODES))
    if x.shape == b.shape:
        return float(np.dot(x.ravel(), b.ravel()))
    if x.shape[1:] == b.shape:
        return x.reshape(x.shape[0], -1) @ b.ravel()
    raise ValueError(f"shape mismatch: {x.shape} vs {b.shape}")


def _parameter_count(spec: LeafModelSpec, feature_shape: tuple[int, ...]) -> int:
    if spec.kind == "cp":
        return int(spec.rank) * sum(feature_shape)
    ranks = _resolve_ranks(spec.rank, feature_shape)
    return int(np.prod(ranks)) + sum(d * r for d, r in zip(feature_shape, ranks))


def min_viable_samples(spec: LeafModelSpec, feature_shape: tuple[int, ...]) -> int:
    """Smallest sample count for which a low-rank fit is attempted.

    Below ``max(2, params / n_features + 1)`` the fit silently reverts
    to the mean model.
    """
    if spec.kind == "mean":
        return 1
    # integer arithmetic: a float overflows on the parameter count of a huge rank
    params = _parameter_count(spec, feature_shape)
    return max(2, -(-params // math.prod(feature_shape)) + 1)


def _least_squares(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Minimum-norm SVD solve: leaf systems are routinely rank-deficient
    # (more factor parameters than samples), where jittered normal
    # equations amplify roundoff across sweeps until they overflow.
    theta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    return theta


def _solve_block(design, phi, y, intercept: int) -> tuple[float, np.ndarray]:
    """``(intercept, coefficients)`` of ``design`` with ``phi`` written after its first ``intercept`` columns."""
    design[:, intercept:] = phi
    theta = _least_squares(design, y)
    return (float(theta[0]) if intercept else 0.0), theta[intercept:]


def _mode_unfold_stacked(x: np.ndarray, q: int) -> np.ndarray:
    """Per-sample mode-``q`` unfolding of the feature tensor, all samples at once."""
    n = x.shape[0]
    return np.moveaxis(x, 1 + q, 1).reshape(n, x.shape[1 + q], -1)


def _converged(losses: list[float], resid: np.ndarray, tol: float) -> bool:
    """Record a sweep's loss ``resid . resid``; whether it moved by at most ``tol`` relative to the last."""
    losses.append(float(np.dot(resid, resid)))
    return len(losses) > 1 and abs(losses[-2] - losses[-1]) <= tol * max(losses[-2], 1e-30)


def _fit_cp_regression(
    x: np.ndarray, y: np.ndarray, rank: int, cfg: AlsConfig, intercept: int
) -> tuple[float, CPDecomposition, tuple[float, ...]]:
    n = x.shape[0]
    feature_shape = x.shape[1:]
    n_modes = len(feature_shape)
    rng = make_rng(cfg.seed)
    factors = [rng.standard_normal((d, rank)) for d in feature_shape]
    unfoldings = [_mode_unfold_stacked(x, q) for q in range(n_modes)]
    # an intercept of 1 is a leading column of ones in each mode's design
    designs = [np.ones((n, intercept + d * rank)) for d in feature_shape]
    flat = x.reshape(n, -1)

    c = 0.0
    losses: list[float] = []
    for _ in range(cfg.max_iterations):
        for q in range(n_modes):
            others = factors[:q] + factors[q + 1 :]
            phi = (unfoldings[q] @ khatri_rao_all(others)).reshape(n, -1)
            c, coef = _solve_block(designs[q], phi, y, intercept)
            factors[q] = coef.reshape(feature_shape[q], rank)
        lead = factors[0] @ khatri_rao_all(factors[1:]).T
        if _converged(losses, y - c - flat @ lead.ravel(), cfg.rel_tolerance):
            break

    weights, unit = _normalize_columns(factors)
    return c, CPDecomposition(weights=weights, factors=tuple(unit)), tuple(losses)


def _fit_tucker_regression(
    x: np.ndarray, y: np.ndarray, ranks: tuple[int, ...], cfg: AlsConfig, intercept: int
) -> tuple[float, TuckerDecomposition, tuple[float, ...]]:
    n = x.shape[0]
    feature_shape = x.shape[1:]
    n_modes = len(feature_shape)
    rng = make_rng(cfg.seed)
    factors = [rng.standard_normal((d, r)) for d, r in zip(feature_shape, ranks)]
    core = rng.standard_normal(ranks)
    unfoldings = [_mode_unfold_stacked(x, q) for q in range(n_modes)]
    widths = [d * r for d, r in zip(feature_shape, ranks)] + [math.prod(ranks)]  # the core's last
    designs = [np.ones((n, intercept + w)) for w in widths]
    flat = x.reshape(n, -1)

    c = 0.0
    losses: list[float] = []
    for _ in range(cfg.max_iterations):
        for q in range(n_modes):
            h = _multiply(core, factors, [p for p in range(n_modes) if p != q])
            h_q = np.moveaxis(h, q, 0).reshape(ranks[q], -1)
            phi = (unfoldings[q] @ h_q.T).reshape(n, -1)
            c, coef = _solve_block(designs[q], phi, y, intercept)
            factors[q] = coef.reshape(feature_shape[q], ranks[q])
        z = x
        for p in range(n_modes):
            z = np.moveaxis(np.tensordot(z, factors[p], axes=([p + 1], [0])), -1, p + 1)
        c, coef = _solve_block(designs[-1], z.reshape(n, -1), y, intercept)
        core = coef.reshape(ranks)
        b = TuckerDecomposition(core=core, factors=tuple(factors)).to_tensor()
        if _converged(losses, y - c - flat @ b.ravel(), cfg.rel_tolerance):
            break

    # Re-express the last sweep's coefficient ``b`` with orthonormal
    # factors; the truncated HOSVD is exact here because the multilinear
    # rank of the fitted tensor cannot exceed the requested ranks.
    ortho = _hosvd(b, ranks)
    core = _multiply(b, ortho, range(n_modes), transpose=True)
    return c, TuckerDecomposition(core=core, factors=tuple(ortho)), tuple(losses)


def fit_leaf(x, y, spec: LeafModelSpec) -> FittedLeafModel:
    """Fit the configured leaf model on a stacked feature tensor.

    Parameters
    ----------
    x : ndarray
        Stacked inputs, shape ``(n, d1, d2)`` or ``(n, d1, d2, d3)``.
    y : ndarray
        Responses, shape ``(n,)``.
    spec : LeafModelSpec

    Returns
    -------
    FittedLeafModel
        Mean model, or intercept plus low-rank coefficient.  When ``n``
        is below :func:`min_viable_samples` the result is a mean model
        with ``fell_back=True``.
    """
    x, y = _check_stacked(x, y)
    feature_shape = x.shape[1:]
    n = x.shape[0]

    fell_back = spec.kind != "mean" and n < min_viable_samples(spec, feature_shape)
    if spec.kind == "mean" or fell_back:
        return FittedLeafModel(
            kind="mean",
            feature_shape=feature_shape,
            n_samples=n,
            mean=float(y.mean()),
            fell_back=fell_back,
        )

    if spec.kind == "cp":
        c, decomp, losses = _fit_cp_regression(x, y, int(spec.rank), spec.als, int(spec.intercept))
    else:
        ranks = _resolve_ranks(spec.rank, feature_shape)
        c, decomp, losses = _fit_tucker_regression(x, y, ranks, spec.als, int(spec.intercept))

    return FittedLeafModel(
        kind=spec.kind,
        feature_shape=feature_shape,
        n_samples=n,
        intercept=c,
        coefficient=decomp,
        losses=losses,
    )


@_finite_predictions
def predict_leaf(model: FittedLeafModel, x) -> np.ndarray:
    """Evaluate a fitted leaf on stacked inputs, returning one value per row.

    A low-rank leaf reads every feature, so a non-finite input value, like
    overflow, gives a non-finite prediction, which raises ``ValueError``.
    """
    x = _check_features(x, model.feature_shape)
    if model.kind == "mean":
        return np.full(x.shape[0], model.mean, dtype=np.float64)
    return model.intercept + contract(x, model.coefficient_tensor())
