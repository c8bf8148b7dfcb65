"""Boosted and bagged ensembles of tensor-input trees.

Boosting is squared-loss forward stagewise fitting: start from the
response mean, fit each tree to the current plain residuals, and add it
scaled by the learning rate.  An optional AdaBoost-like resampling mode
draws each stage's training subset from multiplicative sample weights
``w <- w * exp(|residual|)`` (renormalized every stage and capped at
1e100 so the unbounded update cannot overflow).

The random forest grows independently seeded trees on bootstrap
resamples, each using leverage-score coordinate subsampling re-seeded
per tree, and averages their predictions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._rng import derive_seed, make_rng
from .decomposition import _check_bool, _check_int, _check_number
from .leaf_models import _check_stacked
from .splitting import SearchStrategy, _dense_ranks, _RankedOrders
from .tree import GrowConfig, PruneConfig, TensorTree, grow, prune

WEIGHT_CAP = 1e100
_EXP_CAP = math.log(WEIGHT_CAP)


def _finite_predictions(predict):
    """Decorate a public predict: non-finite output raises ``ValueError``.

    Overflow inside the model's arithmetic is silenced and caught by one
    check of the returned array, so no ``inf`` or ``nan`` reaches a caller.
    """

    @functools.wraps(predict)
    def checked(*args):
        with np.errstate(over="ignore", invalid="ignore"):
            out = predict(*args)
        if not np.isfinite(out).all():
            raise ValueError("non-finite prediction: the model's arithmetic overflowed")
        return out

    return checked


@dataclass(frozen=True)
class BoostingConfig:
    n_estimators: int = 10
    learning_rate: float = 0.1
    p_resample: float = 0.0
    tree: GrowConfig = field(default_factory=GrowConfig)
    prune: PruneConfig | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int(self.n_estimators, "n_estimators", 1)
        _check_int(self.seed, "seed")
        _check_number(self.learning_rate, "learning_rate")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate!r}")
        _check_number(self.p_resample, "p_resample")
        if not 0.0 <= self.p_resample <= 1.0:
            raise ValueError("p_resample must be in [0, 1]")


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 10
    bootstrap: bool = True
    tau: float = 1.0 / 3.0
    tree: GrowConfig = field(default_factory=GrowConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int(self.n_trees, "n_trees", 1)
        _check_int(self.seed, "seed")
        _check_bool(self.bootstrap, "bootstrap")
        _check_number(self.tau, "tau")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")


class BoostedModel:
    """Additive model ``f0 + learning_rate * sum_b tree_b``."""

    def __init__(self, base_value: float, learning_rate: float, trees: list[TensorTree],
                 train_mse: tuple[float, ...] = ()):
        self.base_value = float(base_value)
        self.learning_rate = float(learning_rate)
        self.trees = list(trees)
        self.train_mse = tuple(train_mse)

    @_finite_predictions
    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.full(x.shape[0], self.base_value, dtype=np.float64)
        for t in self.trees:
            out += self.learning_rate * t.predict(x)
        return out


class ForestModel:
    """Arithmetic mean over independently grown trees."""

    def __init__(self, trees: list[TensorTree]):
        if not trees:
            raise ValueError("forest needs at least one tree")
        self.trees = list(trees)

    @_finite_predictions
    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(x.shape[0], dtype=np.float64)
        for t in self.trees:
            out += t.predict(x)
        return out / len(self.trees)


def fit_boosting(x, y, config: BoostingConfig, *, _orders: dict | None = None) -> BoostedModel:
    """Fit a gradient-boosted stack of tensor trees on plain residuals.

    With ``p_resample > 0`` each stage trains on ``ceil(n * p_resample)``
    indices drawn (with replacement) from the running sample weights;
    weights start uniform and are updated by ``exp(|residual|)`` after
    every resampled stage, and the fit ranks each column of ``x`` once so
    that a stage sorts the ranks of its rows.  Per-tree pruning is
    applied before the model update when a prune config is given.
    ``_orders`` is a sorted-order cache for exactly this ``x``, as for
    :func:`~tensortree.tree.grow`, shared by the stages that grow on all
    of it.
    """
    x, y = _check_stacked(x, y)
    n = y.size
    rng = make_rng(config.seed)

    f0 = float(y.mean())
    current = np.full(n, f0, dtype=np.float64)
    weights = np.full(n, 1.0 / n, dtype=np.float64)
    trees: list[TensorTree] = []
    mse_trace: list[float] = []
    orders = {} if _orders is None else _orders
    ranks = _dense_ranks(x) if config.p_resample > 0 else None

    for _ in range(config.n_estimators):
        residual = y - current
        if config.p_resample > 0:
            size = int(math.ceil(n * config.p_resample))
            chosen = rng.choice(n, size=size, replace=True, p=weights)
            tree = grow(x[chosen], residual[chosen], config.tree,
                        _orders=_RankedOrders(ranks, chosen))
            weights = weights * np.exp(np.minimum(np.abs(residual), _EXP_CAP))
            weights = np.minimum(weights, WEIGHT_CAP)
            weights = weights / weights.sum()
        else:
            tree = grow(x, residual, config.tree, _orders=orders)
        if config.prune is not None:
            tree = prune(tree, config.prune)
        tree.drop_training_data()
        trees.append(tree)
        current = current + config.learning_rate * tree.predict(x)
        mse_trace.append(float(np.mean((y - current) ** 2)))

    return BoostedModel(f0, config.learning_rate, trees, tuple(mse_trace))


def fit_forest(x, y, config: ForestConfig) -> ForestModel:
    """Fit a random forest of tensor trees.

    Each tree sees a bootstrap resample (size ``n``, with replacement)
    when ``config.bootstrap`` is set and searches splits with a
    leverage-score strategy at fraction ``config.tau``, re-seeded per
    tree from the forest seed.  With bootstrap the forest ranks each
    column of ``x`` once and a tree sorts the ranks of its rows; without
    it the trees share one sorted-order cache of ``x``.
    """
    x, y = _check_stacked(x, y)
    n = y.size
    trees: list[TensorTree] = []
    ranks = _dense_ranks(x) if config.bootstrap else None
    orders: dict = {}
    for t_index in range(config.n_trees):
        strategy = SearchStrategy(
            kind="leverage", tau=config.tau, seed=derive_seed(config.seed, t_index, 1)
        )
        tree_cfg = replace(config.tree, strategy=strategy)
        if config.bootstrap:
            rows = make_rng(derive_seed(config.seed, t_index)).integers(0, n, size=n)
            tree = grow(x[rows], y[rows], tree_cfg, _orders=_RankedOrders(ranks, rows))
        else:
            tree = grow(x, y, tree_cfg, _orders=orders)
        tree.drop_training_data()
        trees.append(tree)
    return ForestModel(trees)
