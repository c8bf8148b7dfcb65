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

Prediction routes a batch's rows down the tree through a
:class:`_ColumnTable` that lives for one predict call and is shared by
every tree of an ensemble.  Besides the checked batch, its row index and
the full columns read, it keeps the row partitions that the last routed
tree's split nodes made, keyed by rule path; a node of the next tree on
the same path takes them as they are, since a node's rows depend only on
its path and the batch.  That saves boosting stages that repeat their
rules a column read, a finiteness check and a partition per node, and
changes no bit.  A tree that is one mean leaf routes nothing: it checks
the batch's feature shape and gives its mean as a float, which an
ensemble adds to every row.
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
    """The checked batch of one predict call, its full split columns and the last tree's partitions.

    The predict-time sibling of :class:`~tensortree.splitting._RankTable`:
    every tree of an ensemble (and every ensemble of a tensor-output model)
    that routes the batch routes it through one table, so the batch is
    checked once, ``rows`` (every row index, ascending) is built once and
    a column that several roots split on is read once.  A node that holds
    every row reads its column in full and the table keeps it; any other
    node takes its rows from a kept column, or gathers them from the batch
    without keeping them.

    ``partitions`` holds the ``(left, right)`` rows that each split node of
    the last tree routed through the table made, keyed by the node's rule
    path (see :meth:`TensorTree._route`).  A node's rows depend only on its
    path and the batch, so a later tree's node on the same path takes the
    kept pair: the same ascending arrays :func:`_partition` would build
    again, from values the earlier tree already checked.  Each tree that
    routes replaces the kept pairs with its own, and one whose root rule
    differs from the kept root rule drops them before it routes, so the
    table holds no rows the current tree will not read and nothing
    outlives the call.  A tree that is one mean leaf does not route, so
    it leaves the pairs to the next tree.
    """

    def __init__(self, x):
        self.x = _check_array(x, "stacked input", STACKED_MODES)
        self.rows = np.arange(self.x.shape[0])
        self._full: dict = {}
        self.partitions: dict = {}

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


def _rule_key(node: SplitNode) -> tuple:
    """``(coords, threshold)`` of the node's rule, one step of a rule path."""
    return tuple(node.rule.coords), node.rule.threshold


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

        The root starts from ``table.rows``.  A split node's rule path is
        each ancestor's ``(coords, threshold)`` and the side taken, then
        its own ``(coords, threshold)``.  A node on a path that the
        previous routed tree took through ``table`` takes that tree's
        partition from ``table.partitions``; any other split node reads
        its column through ``table``, checks it and partitions its rows
        with :func:`_partition` (``ndarray.compress``), which keeps their
        order.  Either way every leaf gets its rows in ascending order, the
        same bytes.  A tree whose root is a leaf or whose root rule is not
        the kept one drops the kept partitions first, and once the walk
        ends the table keeps this tree's partitions in place of the
        previous tree's.
        Raises ``ValueError`` when the batch's feature shape is not the
        tree's, or when a value that a split routes on is not finite;
        values no split reads are not inspected.
        """
        x = _check_feature_shape(table.x, self.feature_shape)
        root = self.root
        if isinstance(root, LeafNode) or (_rule_key(root),) not in table.partitions:
            table.partitions = {}
        kept, made = table.partitions, {}
        stack = [(root, (), table.rows)]
        while stack:
            node, path, rows = stack.pop()
            if rows.size == 0:
                continue
            if isinstance(node, LeafNode):
                yield node, rows
                continue
            key = path + (_rule_key(node),)
            split = kept.get(key)
            if split is None:
                coords, threshold = key[-1]
                col = table.column(rows, coords)
                if not np.isfinite(col).all():
                    raise ValueError(f"non-finite input at split coords {coords}")
                split = _partition(rows, col <= threshold)
            made[key] = split
            stack.append((node.right, key + ("right",), split[1]))
            stack.append((node.left, key + ("left",), split[0]))
        table.partitions = made

    @_finite_predictions
    def predict(self, x) -> np.ndarray:
        """Route each row to its leaf and evaluate that leaf's model.

        Checks ``x`` once and its output once: raises ``ValueError`` rather
        than return a non-finite prediction, such as a mean leaf built in
        memory with ``inf``.
        """
        table = _ColumnTable(x)
        out = self._predict(table)
        return np.full(table.x.shape[0], out, dtype=np.float64) if isinstance(out, float) else out

    def _predict(self, table: _ColumnTable) -> np.ndarray | float:
        """:meth:`predict` on the table's checked batch, with no output check.

        A tree that is one mean leaf returns its mean as a float, with no
        walk: an ensemble adds it to every row, which gives the bits of
        adding an array of it, and the table's partitions stay as they were.
        """
        root = self.root
        if isinstance(root, LeafNode) and root.model.kind == "mean":
            _check_feature_shape(table.x, self.feature_shape)
            return float(root.model.mean)
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


def _node_arrays(x: np.ndarray, y: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y`` at the rows ``indices`` of a node that :func:`_build` grows.

    A node's rows are ascending and distinct, so only the root holds
    every row, in order, and it reads ``x`` and ``y`` in place.
    """
    return (x, y) if indices.size == x.shape[0] else (x[indices], y[indices])


def _make_leaf(xs: np.ndarray, ys: np.ndarray, indices: np.ndarray, spec: LeafModelSpec) -> LeafNode:
    """A leaf fitted on ``xs`` and ``ys``, the inputs and responses at rows ``indices``."""
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
    its subtrees are grown.  The root reads ``x``, ``y`` and the rank
    table of ``x`` in place.
    """
    xs, ys = _node_arrays(x, y, indices)
    best = find_best_split(
        xs,
        ys,
        config.criterion,
        config.strategy,
        config.leaf,
        min_child=config.min_samples_leaf,
        _ranks=ranks if xs is x else ranks.take(indices),
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
    # A CP or Tucker fit's bits can depend on its input's memory layout, which x and its row copy
    # need not share, so only a mean leaf reads the root in place.
    xs, ys = _node_arrays(x, y, indices) if config.leaf.kind == "mean" else (x[indices], y[indices])
    return _make_leaf(xs, ys, indices, config.leaf)


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
    collapsed = _make_leaf(x[rows], y[rows], rows, spec) if p.quality == "tensor_loss" else None
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
            collapsed = _make_leaf(x[rows], y[rows], rows, spec)
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
