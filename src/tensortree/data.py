"""Synthetic dataset generators, metrics and train/test splitting.

Generators are pure functions of a :class:`SyntheticSpec`: all draws go
through the counter-based Philox generator (see ``_rng``), so a given
spec reproduces the same dataset bit for bit anywhere.  The registry in
``GENERATORS`` maps generator ids to builders; extra generators can be
registered under new ids without touching this module.

Gaussian noise levels are given as standard deviations (``noise_sigma``)
and uniform noise as a half-width ``noise_scale`` meaning
``U(-scale, +scale)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import make_rng
from .decomposition import _check_int, _check_number, cp_als, tucker_als

# Standard deviation for the piecewise-constant generator's default
# noise variance of 0.1.
PRUNE_NOISE_SIGMA = math.sqrt(0.1)


@dataclass(frozen=True)
class SyntheticSpec:
    generator: str
    n: int
    noise_sigma: float | None = None
    noise_scale: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int(self.n, "n", 1)
        _check_int(self.seed, "seed")
        for name in ("noise_sigma", "noise_scale"):
            v = getattr(self, name)
            if v is not None:
                _check_number(v, name)
                if v < 0:
                    raise ValueError(f"{name} must be >= 0, got {v!r}")


@dataclass(frozen=True)
class Metrics:
    mse: float
    rmse: float
    rpe: float


def interaction_target(x: np.ndarray) -> np.ndarray:
    """Noiseless two-term interaction signal on a (n, 5, 4) stack."""
    return 2.0 * x[:, 0, 1] * x[:, 2, 3] + 3.0 * x[:, 1, 0] * x[:, 2, 0] * x[:, 3, 0]


def piecewise_target(x: np.ndarray) -> np.ndarray:
    """Noiseless three-level piecewise-constant signal on a (n, 4, 4, 4) stack.

    Takes value 5 when ``x[:, 0, 1, 0] >= 0.4``, else -1 when
    ``x[:, 2, 2, 0] >= 0.65``, else -4.
    """
    return np.where(
        x[:, 0, 1, 0] >= 0.4, 5.0, np.where(x[:, 2, 2, 0] >= 0.65, -1.0, -4.0)
    )


def _gen_fig5(spec: SyntheticSpec):
    rng = make_rng(spec.seed)
    x = rng.uniform(-1.0, 1.0, size=(spec.n, 5, 4))
    y = interaction_target(x)
    sigma = 0.0 if spec.noise_sigma is None else spec.noise_sigma
    if sigma > 0:
        y = y + rng.normal(0.0, sigma, size=spec.n)
    return x, y


def _gen_prune(spec: SyntheticSpec):
    rng = make_rng(spec.seed)
    x = rng.uniform(0.0, 1.0, size=(spec.n, 4, 4, 4))
    y = piecewise_target(x)
    sigma = PRUNE_NOISE_SIGMA if spec.noise_sigma is None else spec.noise_sigma
    if sigma > 0:
        y = y + rng.normal(0.0, sigma, size=spec.n)
    return x, y


def _uniform_noise(rng, spec: SyntheticSpec, shape):
    scale = 0.01 if spec.noise_scale is None else spec.noise_scale
    if scale == 0:
        return np.zeros(shape)
    return rng.uniform(-scale, scale, size=shape)


def _gen_table2_linear(spec: SyntheticSpec):
    rng = make_rng(spec.seed)
    x = rng.uniform(0.0, 1.0, size=(spec.n, 3, 4))
    p = 15
    y = np.empty((spec.n, p))
    for i in range(p):
        if i % 3 == 0:
            y[:, i] = x[:, 0, 1] + x[:, 1, 1]
        elif i % 3 == 1:
            y[:, i] = x[:, 1, 1] + x[:, 2, 0]
        else:
            y[:, i] = x[:, 2, 2] + x[:, 0, 3]
    return x, y + _uniform_noise(rng, spec, y.shape)


def _gen_table2_nonlinear(spec: SyntheticSpec):
    rng = make_rng(spec.seed)
    x = rng.uniform(0.0, 1.0, size=(spec.n, 3, 4))
    p = 6
    y = np.empty((spec.n, p))
    for i in range(p):
        y[:, i] = np.sin(x[:, i % 3, i % 4])
    return x, y + _uniform_noise(rng, spec, y.shape)


def _exact_response(x: np.ndarray, x_recon: np.ndarray):
    p = 7
    base = x_recon[:, 0, 1] ** 2 - x[:, 0, 0]
    return np.tile(base[:, None], (1, p))


def _gen_table2_exact_cp(spec: SyntheticSpec):
    rng = make_rng(spec.seed)
    x = rng.uniform(0.0, 1.0, size=(spec.n, 12, 6))
    decomp, _ = cp_als(x, 4)
    y = _exact_response(x, decomp.to_tensor())
    return x, y + _uniform_noise(rng, spec, y.shape)


def _gen_table2_exact_tucker(spec: SyntheticSpec):
    rng = make_rng(spec.seed)
    x = rng.uniform(0.0, 1.0, size=(spec.n, 12, 6))
    ranks = (min(4, spec.n), 4, 4)
    decomp, _ = tucker_als(x, ranks)
    y = _exact_response(x, decomp.to_tensor())
    return x, y + _uniform_noise(rng, spec, y.shape)


GENERATORS = {
    "fig5_interaction": _gen_fig5,
    "prune_fn": _gen_prune,
    "table2_linear": _gen_table2_linear,
    "table2_nonlinear": _gen_table2_nonlinear,
    "table2_exact_cp": _gen_table2_exact_cp,
    "table2_exact_tucker": _gen_table2_exact_tucker,
}


def generate(spec: SyntheticSpec):
    """Build the dataset named by ``spec.generator``.

    Returns ``(X, y)`` with a scalar response vector for the
    interaction and piecewise generators, and ``(X, Y)`` with a stacked
    matrix response for the table2 family.
    """
    try:
        builder = GENERATORS[spec.generator]
    except KeyError:
        raise ValueError(
            f"unknown generator {spec.generator!r}; choose from {sorted(GENERATORS)}"
        ) from None
    return builder(spec)


def evaluate(y_true, y_pred) -> Metrics:
    """MSE, RMSE and relative prediction error of ``y_pred`` against ``y_true``.

    RPE is the squared Frobenius norm of the error divided by the
    squared Frobenius norm of the truth; it is 1 for the zero predictor
    and undefined (raises) for an all-zero truth.
    """
    t = np.asarray(y_true, dtype=np.float64)
    p = np.asarray(y_pred, dtype=np.float64)
    if t.shape != p.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise ValueError("cannot score empty arrays")
    diff = (t - p).ravel()
    sq = float(np.dot(diff, diff))
    mse = sq / t.size
    denom = float(np.dot(t.ravel(), t.ravel()))
    if denom == 0.0:
        raise ValueError("RPE undefined for an all-zero reference")
    return Metrics(mse=mse, rmse=math.sqrt(mse), rpe=sq / denom)


def train_test_split(x, y, fraction: float = 0.75, seed: int = 0):
    """Seeded shuffle split; the training part gets ``ceil(fraction * n)`` rows."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError("inputs and responses disagree on the sample count")
    perm = make_rng(seed).permutation(n)
    k = int(math.ceil(fraction * n))
    train, test = perm[:k], perm[k:]
    return x[train], y[train], x[test], y[test]
