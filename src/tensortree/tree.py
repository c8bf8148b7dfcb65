"""Growing, pruning and evaluating a single tensor-input tree.

A tree recursively bisects the sample set with axis-aligned rules on
feature coordinates and fits the configured leaf model inside each
region.  Growth is greedy: at every node the configured search strategy
proposes the criterion-minimizing rule, and the split is accepted only
if it strictly reduces the node's criterion value (by more than 1e-12)
and leaves both children with at least ``min_samples_leaf`` samples.
Zero-gain splits are rejected so constant responses yield a single leaf.

Pruning is one post-order pass driven by the complexity measure
``sum_m N_m * Q_m + alpha * n_leaves``, where ``Q_m`` is the leaf's
response variance, its model's mean squared training residual, or a
per-leaf low-rank reconstruction error; each leaf's term is computed
once.  An internal node collapses into a freshly refitted leaf whenever
the collapsed complexity does not exceed its children's summed cost.

Fitted trees keep a reference to their training arrays (needed for the
collapse refits); trees restored from serialized form, and trees inside
ensembles, drop them, so they predict but cannot be pruned further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .decomposition import AlsConfig, _check_int, _check_number, _check_rank
from .leaf_models import (
    FittedLeafModel,
    LeafModelSpec,
    _check_features,
    _check_stacked,
    fit_leaf,
    predict_leaf,
)
from .splitting import (
    SearchStrategy,
    SplitCriterion,
    SplitRule,
    _check_ranks,
    _child_orders,
    _group_loss,
    _lae_term,
    _lre_spec,
    _split_mask,
    find_best_split,
)

GAIN_TOLERANCE = 1e-12


@dataclass(frozen=True)
class GrowConfig:
    max_depth: int = 3
    min_samples_leaf: int = 5
    criterion: SplitCriterion = field(default_factory=SplitCriterion)
    strategy: SearchStrategy = field(default_factory=SearchStrategy)
    leaf: LeafModelSpec = field(default_factory=LeafModelSpec)

    def __post_init__(self) -> None:
        _check_int(self.max_depth, "max_depth", 0)
        _check_int(self.min_samples_leaf, "min_samples_leaf", 1)
        # Raises when the lre family, which follows the leaf, rejects the split rank.
        _lre_spec(self.criterion, self.leaf)


@dataclass(frozen=True)
class PruneConfig:
    """Complexity-pruning knobs.

    ``quality`` selects Q_m: ``"variance"`` (response variance),
    ``"tensor_loss"`` (leaf model's mean squared training residual) or
    ``"lae"`` (per-leaf low-rank reconstruction error of the inputs,
    divided by the leaf size; requires ``lae_rank``).
    """

    alpha: float = 0.1
    quality: str = "variance"
    lae_rank: int | tuple[int, ...] | None = None
    lae_decomp: str = "cp"
    als: AlsConfig = field(default_factory=AlsConfig)

    def __post_init__(self) -> None:
        _check_number(self.alpha, "alpha")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha!r}")
        if self.quality not in ("variance", "tensor_loss", "lae"):
            raise ValueError(f"unknown quality {self.quality!r}")
        if self.quality == "lae" or self.lae_rank is not None:
            _check_rank(self.lae_rank, self.lae_decomp, "lae_rank")


@dataclass
class LeafNode:
    model: FittedLeafModel
    indices: np.ndarray | None
    n: int
    response_variance: float
    model_mse: float
    leaf_id: int = -1


@dataclass
class SplitNode:
    rule: SplitRule
    left: "LeafNode | SplitNode"
    right: "LeafNode | SplitNode"


def _leaves(node) -> list[LeafNode]:
    """The leaves under ``node``, left to right."""
    if isinstance(node, LeafNode):
        return [node]
    return _leaves(node.left) + _leaves(node.right)


def _depth(node) -> int:
    if isinstance(node, LeafNode):
        return 0
    return 1 + max(_depth(node.left), _depth(node.right))


class TensorTree:
    """A fitted recursive partition with per-leaf models."""

    def __init__(
        self,
        root,
        feature_shape: tuple[int, ...],
        config: GrowConfig | None,
        x_train: np.ndarray | None = None,
        y_train: np.ndarray | None = None,
    ):
        self.root = root
        self.feature_shape = tuple(feature_shape)
        self.config = config
        self._x = x_train
        self._y = y_train
        for i, leaf in enumerate(self.leaves()):
            leaf.leaf_id = i

    def leaves(self) -> list[LeafNode]:
        return _leaves(self.root)

    def drop_training_data(self) -> None:
        """Forget the training arrays and leaf row indices; prediction needs neither."""
        self._x = self._y = None
        for leaf in self.leaves():
            leaf.indices = None

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())

    def depth(self) -> int:
        return _depth(self.root)

    def _route(self, x: np.ndarray):
        """Yield ``(leaf, rows)`` for each leaf that rows of ``x`` reach.

        Raises ``ValueError`` when a value that a split routes on is not
        finite; values no split reads are not inspected.
        """
        stack = [(self.root, np.arange(x.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if isinstance(node, LeafNode):
                yield node, rows
                continue
            col = x[(rows,) + tuple(node.rule.coords)]
            if not np.isfinite(col).all():
                raise ValueError(f"non-finite input at split coords {tuple(node.rule.coords)}")
            go_left = col <= node.rule.threshold
            stack.append((node.right, rows[~go_left]))
            stack.append((node.left, rows[go_left]))

    def predict(self, x) -> np.ndarray:
        """Route each row to its leaf and evaluate that leaf's model.

        Raises ``ValueError`` rather than return a non-finite prediction:
        a low-rank leaf checks its own, and a mean leaf's value is checked
        when a row reaches it (a leaf built in memory can hold ``inf``).
        """
        x = _check_features(x, self.feature_shape)
        out = np.empty(x.shape[0], dtype=np.float64)
        for leaf, rows in self._route(x):
            # A mean leaf reads no features, so its rows are not gathered.
            model = leaf.model
            if model.kind != "mean":
                out[rows] = predict_leaf(model, x[rows])
            elif math.isfinite(model.mean):
                out[rows] = model.mean
            else:
                raise ValueError("non-finite prediction: a leaf mean overflowed")
        return out

    def apply(self, x) -> np.ndarray:
        """Leaf id reached by each row (depth-first, left-to-right numbering)."""
        x = _check_features(x, self.feature_shape)
        out = np.empty(x.shape[0], dtype=np.int64)
        for leaf, rows in self._route(x):
            out[rows] = leaf.leaf_id
        return out


def _make_leaf(x: np.ndarray, y: np.ndarray, indices: np.ndarray, spec: LeafModelSpec) -> LeafNode:
    xs, ys = x[indices], y[indices]
    model = fit_leaf(xs, ys, spec)
    resid = ys - predict_leaf(model, xs)
    return LeafNode(
        model=model,
        indices=indices,
        n=int(indices.size),
        response_variance=float(np.var(ys)),
        model_mse=float(np.mean(resid * resid)),
    )


def _searches(n: int, depth: int, config: GrowConfig) -> bool:
    """Whether a node of ``n`` rows, ``depth`` levels down, looks for a split."""
    return depth < config.max_depth and n >= max(2, 2 * config.min_samples_leaf)


def _split(x, y, indices: np.ndarray, config: GrowConfig, spec, orders: dict):
    """The rule that splits rows ``indices`` and its left-row mask, or None for a leaf.

    A function of its own so that the node's row copies are freed before
    its subtrees are grown.  Only the root holds every row, and in order,
    so it reads ``x`` and ``y`` in place.
    """
    xs, ys = (x, y) if indices.size == x.shape[0] else (x[indices], y[indices])
    best = find_best_split(
        xs,
        ys,
        config.criterion,
        config.strategy,
        config.leaf,
        min_child=config.min_samples_leaf,
        _orders=orders,
    )
    if best is None:
        return None
    # The search already scored the winning rule's children.
    gain = _group_loss(xs, ys, config.criterion, spec) - best.loss
    if gain <= GAIN_TOLERANCE:
        return None
    return best.rule, _split_mask(xs, best.rule)


def _build(x, y, indices: np.ndarray, depth: int, config: GrowConfig, spec, orders=None):
    """The subtree grown on rows ``indices`` of checked inputs, ``depth`` levels down.

    ``orders`` is the node's sorted-order cache (see
    :func:`~tensortree.splitting.find_best_split`), or None to start an
    empty one.  Each child that will search inherits the columns its
    parent sorted; a child that will not gets no cache, and each cache is
    released once the subtrees that read it are built.  A module-level
    function rather than a closure in :func:`grow`: a recursive closure is
    a reference cycle, which would keep each tree's training arrays alive
    until the next garbage collection.
    """
    if _searches(indices.size, depth, config):
        if orders is None:
            orders = {}
        split = _split(x, y, indices, config, spec, orders)
        if split is not None:
            rule, go_left = split
            caches = [
                _child_orders(orders, side) if _searches(int(side.sum()), depth + 1, config) else None
                for side in (go_left, ~go_left)
            ]
            del orders  # still alive only where the caller shares it
            return SplitNode(
                rule=rule,
                left=_build(x, y, indices[go_left], depth + 1, config, spec, caches.pop(0)),
                right=_build(x, y, indices[~go_left], depth + 1, config, spec, caches.pop()),
            )
    return _make_leaf(x, y, indices, config.leaf)


def grow(x, y, config: GrowConfig, *, _orders: dict | None = None) -> TensorTree:
    """Fit a tensor tree on stacked inputs ``x`` and responses ``y``.

    ``_orders`` is a sorted-order cache for exactly this ``x``, shared by
    fits on the same input; it saves sorts only and never changes the tree.
    """
    x, y = _check_stacked(x, y)
    _check_ranks(config.criterion, config.leaf, x.shape[1:])
    spec = _lre_spec(config.criterion, config.leaf)
    root = _build(x, y, np.arange(x.shape[0]), 0, config, spec, _orders)
    return TensorTree(root, x.shape[1:], config, x_train=x, y_train=y)


def _leaf_quality(x: np.ndarray | None, leaf: LeafNode, p: PruneConfig) -> float:
    if p.quality == "variance":
        return leaf.response_variance
    if p.quality == "tensor_loss":
        return leaf.model_mse
    if x is None:
        raise ValueError("lae quality needs the training inputs retained on the tree")
    return _lae_term(x[leaf.indices], _lae_criterion(p)) / leaf.n


def _lae_criterion(p: PruneConfig) -> SplitCriterion:
    return SplitCriterion(kind="lae", split_rank=p.lae_rank, decomp=p.lae_decomp, als=p.als)


def complexity(tree: TensorTree, p: PruneConfig) -> float:
    """``sum_m N_m * Q_m + alpha * n_leaves`` for the tree's current leaves."""
    leaves = tree.leaves()
    total = sum(leaf.n * _leaf_quality(tree._x, leaf, p) for leaf in leaves)
    return float(total + p.alpha * len(leaves))


def _prune(node, x: np.ndarray, y: np.ndarray, spec: LeafModelSpec, p: PruneConfig):
    """``(pruned node, its cost, its training rows)`` for the subtree at ``node``."""
    if isinstance(node, LeafNode):
        leaf = replace(node)
        return leaf, leaf.n * _leaf_quality(x, leaf, p) + p.alpha, leaf.indices
    left, left_cost, left_rows = _prune(node.left, x, y, spec, p)
    right, right_cost, right_rows = _prune(node.right, x, y, spec, p)
    rows = np.concatenate([left_rows, right_rows])
    n = int(rows.size)
    # Only tensor_loss needs the collapsed leaf's fit to price it; otherwise the leaf
    # is fitted only when the node collapses.
    collapsed = _make_leaf(x, y, rows, spec) if p.quality == "tensor_loss" else None
    if p.quality == "variance":
        quality = float(np.var(y[rows]))
    elif p.quality == "lae":
        quality = _lae_term(x[rows], _lae_criterion(p)) / n
    else:
        quality = collapsed.model_mse
    collapsed_cost = n * quality + p.alpha
    kept_cost = left_cost + right_cost
    if collapsed_cost <= kept_cost:
        if collapsed is None:
            collapsed = _make_leaf(x, y, rows, spec)
        return collapsed, collapsed_cost, rows
    return SplitNode(rule=node.rule, left=left, right=right), kept_cost, rows


def prune(tree: TensorTree, p: PruneConfig) -> TensorTree:
    """Bottom-up complexity pruning; returns a new tree, the input is untouched.

    Each internal node is collapsed into a leaf refitted on the node's
    full sample (same leaf spec as training) whenever the collapsed
    complexity contribution is <= the subtree's.
    """
    if tree._x is None or tree._y is None or tree.config is None:
        raise ValueError("pruning needs a tree fitted in this process with retained data")
    if p.quality == "lae":
        _check_ranks(_lae_criterion(p), None, tree.feature_shape)
    root, _, _ = _prune(tree.root, tree._x, tree._y, tree.config.leaf, p)
    return TensorTree(root, tree.feature_shape, tree.config, x_train=tree._x, y_train=tree._y)
