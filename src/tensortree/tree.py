"""Growing, pruning and evaluating a single tensor-input tree.

A tree recursively bisects the sample set with axis-aligned rules on
feature coordinates and fits the configured leaf model inside each
region.  Growth is greedy: at every node the configured search strategy
proposes the criterion-minimizing rule, and the split is accepted only
if it strictly reduces the node's criterion value (by more than 1e-12)
and leaves both children with at least ``min_samples_leaf`` samples.
Zero-gain splits are rejected so constant responses yield a single leaf.

Pruning is a bottom-up recursive pass (no swap or rotate moves) driven
by the complexity measure ``sum_m N_m * Q_m + alpha * n_leaves``, where
``Q_m`` is the leaf's response variance, its model's mean squared
training residual, or a per-leaf low-rank reconstruction error.  An
internal node collapses into a freshly refitted leaf whenever the
collapsed complexity does not exceed the subtree's.

Fitted trees keep a reference to their training arrays (needed for the
collapse refits); trees restored from serialized form, and trees inside
ensembles, drop them, so they predict but cannot be pruned further.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decomposition import AlsConfig
from .leaf_models import FittedLeafModel, LeafModelSpec, fit_leaf, predict_leaf
from .splitting import (
    SearchStrategy,
    SplitCriterion,
    SplitRule,
    _lae_term,
    _lre_spec,
    find_best_split,
    node_criterion_value,
)

GAIN_TOLERANCE = 1e-12

# Pruning strengths used in the reference experiments.
PRUNE_ALPHA_PRESETS = (0.01, 0.1, 0.5)


@dataclass(frozen=True)
class GrowConfig:
    max_depth: int = 3
    min_samples_leaf: int = 5
    criterion: SplitCriterion = field(default_factory=SplitCriterion)
    strategy: SearchStrategy = field(default_factory=SearchStrategy)
    leaf: LeafModelSpec = field(default_factory=LeafModelSpec)

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        crit = self.criterion
        if crit.kind != "sse":
            family = _lre_spec(crit, self.leaf).kind if crit.kind == "lre" else crit.decomp
            if family == "cp" and not isinstance(crit.split_rank, (int, np.integer)):
                raise ValueError(f"a CP split rank must be an int, got {crit.split_rank!r}")


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
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.quality not in ("variance", "tensor_loss", "lae"):
            raise ValueError(f"unknown quality {self.quality!r}")
        if self.quality == "lae" and self.lae_rank is None:
            raise ValueError("lae quality needs lae_rank")


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
        self._number_leaves()

    def _number_leaves(self) -> None:
        for i, leaf in enumerate(self.leaves()):
            leaf.leaf_id = i

    def leaves(self) -> list[LeafNode]:
        out: list[LeafNode] = []

        def walk(node) -> None:
            if isinstance(node, LeafNode):
                out.append(node)
            else:
                walk(node.left)
                walk(node.right)

        walk(self.root)
        return out

    def drop_training_data(self) -> None:
        """Forget the training arrays and leaf row indices; prediction needs neither."""
        self._x = self._y = None
        for leaf in self.leaves():
            leaf.indices = None

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())

    def depth(self) -> int:
        def walk(node) -> int:
            if isinstance(node, LeafNode):
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def _check_features(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.feature_shape:
            raise ValueError(
                f"feature shape {x.shape[1:]} does not match training shape {self.feature_shape}"
            )
        return x

    def predict(self, x) -> np.ndarray:
        """Route each row to its leaf and evaluate that leaf's model."""
        x = self._check_features(x)
        out = np.empty(x.shape[0], dtype=np.float64)

        def walk(node, rows: np.ndarray) -> None:
            if rows.size == 0:
                return
            if isinstance(node, LeafNode):
                out[rows] = predict_leaf(node.model, x[rows])
                return
            col = x[(rows,) + tuple(node.rule.coords)]
            go_left = col <= node.rule.threshold
            walk(node.left, rows[go_left])
            walk(node.right, rows[~go_left])

        walk(self.root, np.arange(x.shape[0]))
        return out

    def apply(self, x) -> np.ndarray:
        """Leaf id reached by each row (depth-first, left-to-right numbering)."""
        x = self._check_features(x)
        out = np.empty(x.shape[0], dtype=np.int64)

        def walk(node, rows: np.ndarray) -> None:
            if rows.size == 0:
                return
            if isinstance(node, LeafNode):
                out[rows] = node.leaf_id
                return
            col = x[(rows,) + tuple(node.rule.coords)]
            go_left = col <= node.rule.threshold
            walk(node.left, rows[go_left])
            walk(node.right, rows[~go_left])

        walk(self.root, np.arange(x.shape[0]))
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


def grow(x, y, config: GrowConfig) -> TensorTree:
    """Fit a tensor tree on stacked inputs ``x`` and responses ``y``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim < 3 or x.ndim > 4:
        raise ValueError(f"stacked input must have 2 or 3 feature modes, got shape {x.shape}")
    if y.size != x.shape[0]:
        raise ValueError("response length does not match sample count")
    if y.size == 0:
        raise ValueError("need at least one sample")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("inputs contain non-finite values")

    def build(indices: np.ndarray, depth: int):
        n = indices.size
        if depth < config.max_depth and n >= max(2, 2 * config.min_samples_leaf):
            xs, ys = x[indices], y[indices]
            best = find_best_split(
                xs,
                ys,
                config.criterion,
                config.strategy,
                config.leaf,
                min_child=config.min_samples_leaf,
            )
            if best is not None:
                # The search already scored the winning rule's children.
                gain = node_criterion_value(xs, ys, config.criterion, config.leaf) - best.loss
                if gain > GAIN_TOLERANCE:
                    col = xs[(slice(None),) + tuple(best.rule.coords)]
                    go_left = col <= best.rule.threshold
                    return SplitNode(
                        rule=best.rule,
                        left=build(indices[go_left], depth + 1),
                        right=build(indices[~go_left], depth + 1),
                    )
        return _make_leaf(x, y, indices, config.leaf)

    root = build(np.arange(x.shape[0]), 0)
    return TensorTree(root, x.shape[1:], config, x_train=x, y_train=y)


def _leaf_quality(tree: TensorTree, leaf: LeafNode, p: PruneConfig) -> float:
    if p.quality == "variance":
        return leaf.response_variance
    if p.quality == "tensor_loss":
        return leaf.model_mse
    if tree._x is None:
        raise ValueError("lae quality needs the training inputs retained on the tree")
    xs = tree._x[leaf.indices]
    crit = SplitCriterion(kind="lae", split_rank=p.lae_rank, decomp=p.lae_decomp, als=p.als)
    return _lae_term(xs, crit) / leaf.n


def complexity(tree: TensorTree, p: PruneConfig) -> float:
    """``sum_m N_m * Q_m + alpha * n_leaves`` for the tree's current leaves."""
    leaves = tree.leaves()
    total = sum(leaf.n * _leaf_quality(tree, leaf, p) for leaf in leaves)
    return float(total + p.alpha * len(leaves))


def prune(tree: TensorTree, p: PruneConfig) -> TensorTree:
    """Bottom-up complexity pruning; returns a new tree, the input is untouched.

    Each internal node is collapsed into a leaf refitted on the node's
    full sample (same leaf spec as training) whenever the collapsed
    complexity contribution is <= the subtree's.
    """
    if tree._x is None or tree._y is None or tree.config is None:
        raise ValueError("pruning needs a tree fitted in this process with retained data")
    x, y = tree._x, tree._y
    spec = tree.config.leaf

    def subtree_cost(node) -> float:
        if isinstance(node, LeafNode):
            return node.n * _leaf_quality(tree, node, p) + p.alpha
        return subtree_cost(node.left) + subtree_cost(node.right)

    def walk(node):
        if isinstance(node, LeafNode):
            return LeafNode(
                model=node.model,
                indices=node.indices,
                n=node.n,
                response_variance=node.response_variance,
                model_mse=node.model_mse,
            )
        left = walk(node.left)
        right = walk(node.right)
        kept = SplitNode(rule=node.rule, left=left, right=right)
        indices = _collect_indices(kept)
        collapsed = _make_leaf(x, y, indices, spec)
        collapsed_cost = collapsed.n * _leaf_quality(tree, collapsed, p) + p.alpha
        if collapsed_cost <= subtree_cost(kept):
            return collapsed
        return kept

    new_root = walk(tree.root)
    return TensorTree(new_root, tree.feature_shape, tree.config, x_train=x, y_train=y)


def _collect_indices(node) -> np.ndarray:
    if isinstance(node, LeafNode):
        return node.indices
    return np.concatenate([_collect_indices(node.left), _collect_indices(node.right)])
