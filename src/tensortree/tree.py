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

from dataclasses import dataclass, field, replace

import numpy as np

from ._checks import (STACKED_MODES, _check_array, _check_choice, _check_feature_shape, _check_int, _check_number,
                      _check_rank, _check_ranks, _check_stacked, _finite_predictions)
from .decomposition import AlsConfig
from .leaf_models import FittedLeafModel, LeafModelSpec, fit_leaf, predict_leaf
from .splitting import (
    SearchStrategy,
    SplitCriterion,
    SplitRule,
    _column,
    _group_loss,
    _lae_term,
    _lre_spec,
    _RankTable,
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
        _check_number(self.alpha, "alpha", "[0, inf)")
        _check_choice(self.quality, ("variance", "tensor_loss", "lae"), "quality")
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


def _partition(rows: np.ndarray, go_left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``rows`` where ``go_left`` holds, then the rest, each in order."""
    # compress, since rows[mask] takes several times as long on numpy 2 for the same entries
    return rows.compress(go_left), rows.compress(~go_left)


class _ColumnTable:
    """The checked batch of one predict call and the full split columns read so far.

    The predict-time sibling of :class:`~tensortree.splitting._RankTable`:
    every tree of an ensemble (and every ensemble of a tensor-output model)
    routes one batch through one table, so the batch is checked once and
    a column that several roots split on is read once.  A node that holds
    every row reads its column in full and the table keeps it; any other
    node takes its rows from a kept column, or gathers them from the batch
    without keeping them.
    """

    def __init__(self, x):
        self.x = _check_array(x, "stacked input", STACKED_MODES)
        self._full: dict = {}

    def _read(self, coords: tuple[int, ...]) -> np.ndarray:
        """Column ``coords`` of every row, as a contiguous copy."""
        return _column(self.x, coords).copy()

    def column(self, rows: np.ndarray, coords: tuple[int, ...]) -> np.ndarray:
        """The values at ``coords`` of rows ``rows``.

        A node's rows are ascending and distinct, so a node with as many
        rows as the batch holds every row, in order.
        """
        full = self._full.get(coords)
        if rows.size == self.x.shape[0]:
            if full is None:
                full = self._full[coords] = self._read(coords)
            return full
        return self.x[(rows,) + coords] if full is None else full[rows]


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

    def _route(self, table: _ColumnTable):
        """Yield ``(leaf, rows)`` for each leaf that rows of the table's batch reach.

        Each split node reads its column through ``table`` and partitions
        its rows with :func:`_partition` (``ndarray.compress``), which
        keeps their order, so every leaf gets its rows in ascending order.
        Raises ``ValueError`` when the batch's feature shape is not the
        tree's, or when a value that a split routes on is not finite;
        values no split reads are not inspected.
        """
        x = _check_feature_shape(table.x, self.feature_shape)
        stack = [(self.root, np.arange(x.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if isinstance(node, LeafNode):
                yield node, rows
                continue
            coords = tuple(node.rule.coords)
            col = table.column(rows, coords)
            if not np.isfinite(col).all():
                raise ValueError(f"non-finite input at split coords {coords}")
            left, right = _partition(rows, col <= node.rule.threshold)
            stack.append((node.right, right))
            stack.append((node.left, left))

    @_finite_predictions
    def predict(self, x) -> np.ndarray:
        """Route each row to its leaf and evaluate that leaf's model.

        Checks ``x`` once and its output once: raises ``ValueError`` rather
        than return a non-finite prediction, such as a mean leaf built in
        memory with ``inf``.
        """
        return self._predict(_ColumnTable(x))

    def _predict(self, table: _ColumnTable) -> np.ndarray:
        """:meth:`predict` on the table's checked batch, with no output check."""
        x = table.x
        out = np.empty(x.shape[0], dtype=np.float64)
        for leaf, rows in self._route(table):
            # A mean leaf reads no features, so its rows are not gathered.
            model = leaf.model
            out[rows] = model.mean if model.kind == "mean" else predict_leaf(model, x[rows])
        return out

    def apply(self, x) -> np.ndarray:
        """Leaf id reached by each row (depth-first, left-to-right numbering)."""
        table = _ColumnTable(x)
        out = np.empty(table.x.shape[0], dtype=np.int64)
        for leaf, rows in self._route(table):
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


def _split(x, y, indices: np.ndarray, config: GrowConfig, spec, ranks: _RankTable):
    """The rule that splits rows ``indices`` and its left-row mask, or None for a leaf.

    A function of its own so that the node's row copies are freed before
    its subtrees are grown.  Only the root holds every row, and in order,
    so it reads ``x``, ``y`` and the rank table of ``x`` in place.
    """
    root = indices.size == x.shape[0]
    xs, ys = (x, y) if root else (x[indices], y[indices])
    best = find_best_split(
        xs,
        ys,
        config.criterion,
        config.strategy,
        config.leaf,
        min_child=config.min_samples_leaf,
        _ranks=ranks if root else ranks.take(indices),
    )
    if best is None:
        return None
    # The search already scored the winning rule's children.
    gain = _group_loss(xs, ys, config.criterion, spec) - best.loss
    if gain <= GAIN_TOLERANCE:
        return None
    return best.rule, _split_mask(xs, best.rule)


def _build(x, y, indices: np.ndarray, depth: int, config: GrowConfig, spec, ranks: _RankTable):
    """The subtree grown on rows ``indices`` of checked inputs, ``depth`` levels down.

    ``ranks`` is the rank table of ``x``, which every node's search reads
    at the node's rows.  A module-level function rather than a closure in
    :func:`grow`: a recursive closure is a reference cycle, which would
    keep each tree's training arrays alive until the next garbage
    collection.
    """
    if _searches(indices.size, depth, config):
        split = _split(x, y, indices, config, spec, ranks)
        if split is not None:
            rule, go_left = split
            left, right = _partition(indices, go_left)
            return SplitNode(
                rule=rule,
                left=_build(x, y, left, depth + 1, config, spec, ranks),
                right=_build(x, y, right, depth + 1, config, spec, ranks),
            )
    return _make_leaf(x, y, indices, config.leaf)


def grow(x, y, config: GrowConfig, *, _ranks: _RankTable | None = None) -> TensorTree:
    """Fit a tensor tree on stacked inputs ``x`` and responses ``y``.

    ``_ranks`` is a rank table whose rows are exactly this ``x``'s (see
    :class:`~tensortree.splitting._RankTable`), shared by fits on the same
    input; without it the tree ranks ``x`` itself.  It saves ranking only
    and never changes the tree.
    """
    x, y = _check_stacked(x, y)
    spec = _lre_spec(config.criterion, config.leaf)
    _check_ranks(config.criterion, (config.leaf, spec), x.shape[1:])
    root = _build(x, y, np.arange(x.shape[0]), 0, config, spec, _RankTable(x) if _ranks is None else _ranks)
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
        _check_ranks(_lae_criterion(p), (), tree.feature_shape)
    root, _, _ = _prune(tree.root, tree._x, tree._y, tree.config.leaf, p)
    return TensorTree(root, tree.feature_shape, tree.config, x_train=tree._x, y_train=tree._y)
