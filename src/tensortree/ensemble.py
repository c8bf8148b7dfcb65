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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._checks import _check_bool, _check_int, _check_number, _check_stacked, _finite_predictions
from ._rng import derive_seed, make_rng
from .splitting import SearchStrategy, _RankTable
from .tree import GrowConfig, PruneConfig, TensorTree, _ColumnTable, grow, prune

WEIGHT_CAP = 1e100
_EXP_CAP = math.log(WEIGHT_CAP)


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
        _check_number(self.learning_rate, "learning_rate", "(0, inf)")
        _check_number(self.p_resample, "p_resample", "[0, 1]")


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
        _check_number(self.tau, "tau", "(0, 1]")


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
        """``f0`` plus the learning rate times each tree's prediction, summed in tree order.

        Checks ``x`` once, and every tree with a split routes it through
        one column table; a tree that is one mean leaf adds its mean with
        no walk.  Only the sum is checked, and a non-finite one raises
        ``ValueError``.
        """
        return self._predict(_ColumnTable(x))

    def _predict(self, table: _ColumnTable) -> np.ndarray:
        """:meth:`predict` on the table's checked batch, with no output check."""
        out = np.full(table.x.shape[0], self.base_value, dtype=np.float64)
        for t in self.trees:
            out += self.learning_rate * t._predict(table)
        return out


class ForestModel:
    """Arithmetic mean over independently grown trees."""

    def __init__(self, trees: list[TensorTree]):
        if not trees:
            raise ValueError("forest needs at least one tree")
        self.trees = list(trees)

    @_finite_predictions
    def predict(self, x) -> np.ndarray:
        """The mean of the trees' predictions, summed in tree order.

        Checks ``x`` once, and every tree with a split routes it through
        one column table; a tree that is one mean leaf adds its mean with
        no walk.  Only the mean is checked, and a non-finite one raises
        ``ValueError``.
        """
        return self._predict(_ColumnTable(x))

    def _predict(self, table: _ColumnTable) -> np.ndarray:
        """:meth:`predict` on the table's checked batch, with no output check."""
        out = np.zeros(table.x.shape[0], dtype=np.float64)
        for t in self.trees:
            out += t._predict(table)
        return out / len(self.trees)


def fit_boosting(x, y, config: BoostingConfig, *, _ranks: _RankTable | None = None) -> BoostedModel:
    """Fit a gradient-boosted stack of tensor trees on plain residuals.

    With ``p_resample > 0`` each stage trains on ``ceil(n * p_resample)``
    indices drawn (with replacement) from the running sample weights;
    weights start uniform and are updated by ``exp(|residual|)`` after
    every resampled stage.  Per-tree pruning is applied before the model
    update when a prune config is given.  Every stage reads one rank table
    of ``x``, so the fit ranks each column at most once.  ``_ranks`` is
    such a table whose rows are exactly this ``x``'s, as for
    :func:`~tensortree.tree.grow`, shared by other fits on the same input.
    """
    x, y = _check_stacked(x, y)
    n = y.size
    rng = make_rng(config.seed)

    f0 = float(y.mean())
    current = np.full(n, f0, dtype=np.float64)
    weights = np.full(n, 1.0 / n, dtype=np.float64)
    trees: list[TensorTree] = []
    mse_trace: list[float] = []
    ranks = _RankTable(x) if _ranks is None else _ranks

    for _ in range(config.n_estimators):
        residual = y - current
        if config.p_resample > 0:
            size = int(math.ceil(n * config.p_resample))
            chosen = rng.choice(n, size=size, replace=True, p=weights)
            tree = grow(x[chosen], residual[chosen], config.tree, _ranks=ranks.take(chosen))
            weights = weights * np.exp(np.minimum(np.abs(residual), _EXP_CAP))
            weights = np.minimum(weights, WEIGHT_CAP)
            weights = weights / weights.sum()
        else:
            tree = grow(x, residual, config.tree, _ranks=ranks)
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
    tree from the forest seed.  The trees read one rank table of ``x``,
    so the forest ranks each column at most once.
    """
    x, y = _check_stacked(x, y)
    n = y.size
    trees: list[TensorTree] = []
    ranks = _RankTable(x)
    for t_index in range(config.n_trees):
        strategy = SearchStrategy(
            kind="leverage", tau=config.tau, seed=derive_seed(config.seed, t_index, 1)
        )
        tree_cfg = replace(config.tree, strategy=strategy)
        if config.bootstrap:
            rows = make_rng(derive_seed(config.seed, t_index)).integers(0, n, size=n)
            tree = grow(x[rows], y[rows], tree_cfg, _ranks=ranks.take(rows))
        else:
            tree = grow(x, y, tree_cfg, _ranks=ranks)
        tree.drop_training_data()
        trees.append(tree)
    return ForestModel(trees)
