"""Split criteria and split search for tensor-input trees.

A split is an axis-aligned rule on one feature coordinate: rows with
``X[:, j1, j2] <= threshold`` go left, the rest go right.  Three
criteria score a candidate rule:

* ``sse`` - unweighted sum over the two children of the population
  variance of the responses (scale-free in the child sizes).
* ``lae`` - sum over the two children of the squared reconstruction
  error of a low-rank (CP or Tucker) decomposition of the child's
  stacked input tensor.  Does not look at the responses.
* ``lre`` - sum over the two children of the squared training residuals
  of a low-rank regression fitted inside each child.

Thresholds come either from the observed values of the coordinate or
from its node-local mean (one candidate per coordinate).

Every criterion and strategy goes through :func:`find_best_split`,
which searches a node for its best rule, and :func:`evaluate_split`,
which scores one rule; ``y`` may be None only under ``lae``, which reads
no responses.  Each scores a rule through two helpers: one builds the
rule's left-child mask, the other sums the criterion over the children
of a mask.  The three search strategies are three coordinate orders fed
to one scorer: every coordinate in row-major order (exhaustive), a
variance-weighted sample in sorted order (leverage), or the distinct box
midpoints of a FIFO bisection walk (branch-and-bound).  With ``tau=1``
the sample holds every useful coordinate and with ``xi=0`` the walk
reaches every coordinate, so both reduce to the exhaustive result.

Ties are broken toward the lexicographically smallest coordinates, then
the smallest threshold, independent of evaluation order.

Every search runs in two phases, the same for all three criteria: rules
are scored best-first by a lower bound, as in branch and bound (Land &
Doig, 1960).  In the bound phase each coordinate lists its admissible
rules and fits nothing.  A rule is admissible when it cuts between two
distinct sorted values of the column (observed mode) or at the column
mean (mean mode), and leaves at least ``min_child`` rows in each child.
Each rule carries a bound on its loss and one on each child's loss:

* ``lre``: CP and Tucker regressions (with or without an intercept) and
  the mean fallback are all affine functions of ``vec(X_i)``, so no
  child fit can leave a smaller residual than the least-squares fit of
  the child's responses on ``[1, vec(X_i)]``.  Read in the column's
  sorted order, a left child is a prefix of the node's rows and a right
  child a suffix, so running sums of ``outer(d_i, d_i)`` over
  ``d_i = [1, vec(X_i), y_i]`` (blocked, forward for the left children
  and backward for the right) give each child's residual as
  ``q - b' G^-1 b``.  A child with at most ``features + 1`` rows gets 0,
  and a child whose solve might be off by more than a quarter of the
  margin takes its ``lstsq`` residual instead.
* observed-value ``sse``: a coordinate offers only the best threshold of
  a prefix-sum scan over its responses in the column's value order,
  bounded by the scan loss, with child bounds 0.  The scan reads rank
  keys and responses: a cut between two equal keys is a cut between
  equal values, and is masked.  The only feature value it reads is the
  winning threshold.  The scan loss may lie on either side of the exact
  loss, but never by more than the margin.
* ``lae`` and mean-value ``sse``: every admissible rule, all bounds 0.

In the score phase the pooled rules are visited in ascending ``(bound,
coords, threshold)`` order.  Scoring stops at the first bound that
exceeds the best loss so far by more than the margin,
``max(BOUND_MARGIN, SSE_MARGIN (n+3)(2+sqrt(n)))`` times the node's sum
of squared responses (:func:`_margin`); the margin absorbs the roundoff
between a bound and the loss it bounds.  A scored rule first computes
the child with the larger bound, on equal bounds the one with more rows
(likelier to pass the limit alone), on a full tie the left one, and
skips the other when that loss plus the other's bound already passes
the same limit (the one-child exit).  A skipped rule could therefore
never have won or tied, a scored loss is still the left child's plus the
right child's, and ties are still broken by the key above, so every
strategy returns the same rule and loss as a scan that scores every rule.

Observed-value ``sse`` and ``lre`` read each coordinate's rows in value
order from the fit's rank table (:class:`_RankTable`): the dense ranks of
each input column, computed the first time a search reads the column
(uint16 up to 2**16 rows).  Equal values (-0.0 and 0.0 among them) share
a rank and larger values get larger ranks, so the stable argsort of a
node's ranks is the stable argsort of its values, and for uint16 a radix
sort.  The ranks in that order are equal exactly where the sorted values
are, so they give the ``sse`` scan its ties.  Every node argsorts the
ranks of its own rows of the table's input.  The table also keeps each
ranked column's order over the whole input, which the roots of trees
grown on all of it read: boosting stages
without resampling, forest trees without bootstrap, and the per-entry or
per-column jobs of a tensor-output fit.  Trees grown on row resamples
(bootstrap forests, resampled boosting) share the ranks.  ``lae`` and
mean-value ``sse`` sort a copy of the column and rank nothing.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ._checks import _check_choice, _check_coords, _check_int, _check_number, _check_rank, _check_stacked
from ._rng import make_rng
from .decomposition import AlsConfig, approximation_error, cp_als, tucker_als
from .leaf_models import LeafModelSpec, fit_leaf, predict_leaf

# Relative slack on the least-squares bound of an ``lre`` candidate, as a
# fraction of the node's sum of squared responses.
BOUND_MARGIN = 1e-9

_EPS = np.finfo(np.float64).eps

# Slack between an ``sse`` coordinate's prefix-scan loss and its exact
# child loss, in units of ``(n + 3) * (2 + sqrt(n))`` times the node's sum
# of squared responses (derived in :func:`_margin`).
SSE_MARGIN = 3 * _EPS

# Numbers held at once by the blocks of outer products that sum an ``lre``
# child's moments (8 bytes each).
_MOMENT_BLOCK = 2**18


@dataclass(frozen=True)
class SplitRule:
    """Axis-aligned split: rows with ``X[:, coords] <= threshold`` go left."""

    coords: tuple[int, ...]
    threshold: float


@dataclass(frozen=True)
class SplitCriterion:
    """Which loss scores a candidate split.

    ``split_rank`` parameterizes the low-rank criteria and must be absent
    for ``sse``; ``decomp`` picks CP vs Tucker for the low-rank fits;
    ``value_mode`` is ``"observed"`` (scan observed values) or ``"mean"``
    (single node-local mean threshold per coordinate).
    """

    kind: str = "sse"
    split_rank: int | tuple[int, ...] | None = None
    decomp: str = "cp"
    value_mode: str = "observed"
    als: AlsConfig = field(default_factory=AlsConfig)

    def __post_init__(self) -> None:
        _check_choice(self.kind, ("sse", "lae", "lre"), "criterion")
        _check_choice(self.decomp, ("cp", "tucker"), "decomposition")
        _check_choice(self.value_mode, ("observed", "mean"), "value mode")
        if self.kind == "sse" and self.split_rank is not None:
            raise ValueError("sse takes no split_rank")
        if self.kind != "sse":
            # An lre family follows the leaf spec, so only GrowConfig knows it.
            family = self.decomp if self.kind == "lae" else "tucker"
            _check_rank(self.split_rank, family, "split rank")


@dataclass(frozen=True)
class SearchStrategy:
    """How the coordinate grid is scanned.

    ``tau`` is the leverage-score sample fraction in (0, 1]; ``xi`` is
    the branch-and-bound tolerance on index-range width (0 means resolve
    every coordinate).
    """

    kind: str = "exhaustive"
    tau: float = 1.0
    xi: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_choice(self.kind, ("exhaustive", "leverage", "bb"), "strategy")
        _check_number(self.tau, "tau", "(0, 1]")
        _check_int(self.xi, "xi", 0)
        _check_int(self.seed, "seed")


@dataclass(frozen=True)
class SplitEvaluation:
    """Best rule found by a search, with its loss and child sizes."""

    rule: SplitRule
    loss: float
    left_count: int
    right_count: int


def _column(x: np.ndarray, coords: tuple[int, ...]) -> np.ndarray:
    return x[(slice(None),) + tuple(coords)]


def _split_mask(x: np.ndarray, rule: SplitRule) -> np.ndarray:
    """Rows of ``x`` that ``rule`` sends left."""
    return _column(x, rule.coords) <= rule.threshold


def _thresholds(col: np.ndarray, value_mode: str) -> np.ndarray:
    return np.unique(col) if value_mode == "observed" else np.array([col.mean()])


def candidate_thresholds(x, coords: tuple[int, ...], value_mode: str) -> np.ndarray:
    """Thresholds searched at one coordinate.

    Observed mode returns the sorted distinct values of the coordinate's
    column; mean mode returns the single node-local column mean.
    """
    _check_choice(value_mode, ("observed", "mean"), "value mode")
    x, _ = _check_stacked(x)
    coords = _check_coords(coords, x.shape[1:])
    return _thresholds(_column(x, coords), value_mode)


def _lae_term(x_group: np.ndarray, crit: SplitCriterion) -> float:
    """One child's low-rank reconstruction error.

    Groups with fewer samples than the observation-mode rank fall back to
    the error of the mean tensor, which keeps every candidate comparable
    and never consults the responses.
    """
    rank = crit.split_rank
    if x_group.shape[0] < (rank if isinstance(rank, (int, np.integer)) else rank[0]):
        diff = x_group - x_group.mean(axis=0)
        return float(np.dot(diff.ravel(), diff.ravel()))
    if crit.decomp == "cp":
        decomp, _ = cp_als(x_group, int(rank), crit.als)
    else:
        decomp, _ = tucker_als(x_group, rank, crit.als)
    return approximation_error(x_group, decomp)


def _lre_spec(criterion: SplitCriterion, leaf: LeafModelSpec | None) -> LeafModelSpec | None:
    """Regression spec used inside the LRE criterion; None for the other criteria.

    The split rank comes from the criterion (it may differ from the leaf
    regression rank); family and intercept follow the leaf spec when one
    is given, otherwise the criterion's ``decomp``.
    """
    if criterion.kind != "lre":
        return None
    kind = criterion.decomp
    intercept = True
    if leaf is not None and leaf.kind != "mean":
        kind = leaf.kind
        intercept = leaf.intercept
    _check_rank(criterion.split_rank, kind, "split rank")
    return LeafModelSpec(
        kind=kind, rank=criterion.split_rank, als=criterion.als, intercept=intercept
    )


def _lre_term(x_group: np.ndarray, y_group: np.ndarray, spec: LeafModelSpec) -> float:
    model = fit_leaf(x_group, y_group, spec)
    resid = y_group - predict_leaf(model, x_group)
    return float(np.dot(resid, resid))


def _group_loss(x, y, criterion: SplitCriterion, spec, rows=slice(None)) -> float:
    """The criterion on the node rows ``rows`` (default: all) taken as one group."""
    if criterion.kind == "sse":
        return float(np.var(y[rows]))
    if criterion.kind == "lae":
        return _lae_term(x[rows], criterion)
    return _lre_term(x[rows], y[rows], spec)


def _children_loss(x, y, mask: np.ndarray, criterion: SplitCriterion, spec) -> float:
    """The criterion summed over the two children of the left-child ``mask``.

    ``spec`` is :func:`_lre_spec` of the criterion.  Under ``sse`` this is
    ``np.var(y[mask]) + np.var(y[~mask])``, the arithmetic every search
    reports, so that rules inducing the same partition tie exactly.
    """
    return (_group_loss(x, y, criterion, spec, mask)
            + _group_loss(x, y, criterion, spec, ~mask))


def _inputs(x, y, criterion: SplitCriterion):
    """Checked ``(x, y)``; a ``y`` of None is zeros under ``lae`` and ``ValueError`` otherwise.

    ``lae`` reads no responses and bounds every rule by 0, so the margin
    that ``y`` sets never decides its winner.
    """
    if y is not None:
        return _check_stacked(x, y)
    if criterion.kind != "lae":
        raise ValueError(f"criterion {criterion.kind!r} needs responses y; only 'lae' takes y=None")
    x, _ = _check_stacked(x)
    return x, np.zeros(x.shape[0])


def _checked_split(x, y, rule: SplitRule, criterion: SplitCriterion):
    """Validated ``(x, y, mask)`` for ``rule``; ``mask`` is None when a child is empty."""
    x, y = _inputs(x, y, criterion)
    coords = _check_coords(rule.coords, x.shape[1:])
    mask = _split_mask(x, SplitRule(coords, _check_number(rule.threshold, "threshold")))
    return x, y, mask if 0 < int(mask.sum()) < x.shape[0] else None


def evaluate_split(x, y, rule: SplitRule, criterion: SplitCriterion,
                   leaf: LeafModelSpec | None = None) -> float:
    """The criterion summed over the two children of ``rule``; ``inf`` if a child is empty."""
    x, y, mask = _checked_split(x, y, rule, criterion)
    if mask is None:
        return math.inf
    return _children_loss(x, y, mask, criterion, _lre_spec(criterion, leaf))


def _affine_design(x: np.ndarray) -> np.ndarray:
    """Rows ``[1, vec(x_i)]``: the linear family that contains every leaf model."""
    n = x.shape[0]
    return np.hstack([np.ones((n, 1)), x.reshape(n, -1)])


def _lstsq_residual(d: np.ndarray, t: np.ndarray) -> float:
    """Squared residual of the least-squares fit of ``t`` on ``d``; 0 without a solve when ``d`` is not tall."""
    if d.shape[0] <= d.shape[1]:
        return 0.0
    resid = t - d @ np.linalg.lstsq(d, t, rcond=None)[0]
    return float(np.dot(resid, resid))


def _lre_bound(design: np.ndarray, y: np.ndarray, mask: np.ndarray) -> float:
    """Lower bound on the ``lre`` loss of the split ``mask``: summed child least-squares residuals.

    The reference that the search's Gram-sum bounds reproduce (see
    :func:`_child_bounds`), which also fall back to it per child.
    """
    return _lstsq_residual(design[mask], y[mask]) + _lstsq_residual(design[~mask], y[~mask])


def node_criterion_value(x, y, criterion: SplitCriterion, leaf: LeafModelSpec | None = None) -> float:
    """The criterion evaluated on a node as a single unsplit group.

    For ``sse`` this is the node's response variance (the value a
    degenerate everything-on-one-side rule would score); for ``lae`` and
    ``lre`` it is the node's own low-rank term.  Either way the value is
    directly comparable to a candidate split's loss, which is how tree
    growth decides whether a split actually improves on not splitting.
    """
    x, y = _inputs(x, y, criterion)
    return _group_loss(x, y, criterion, _lre_spec(criterion, leaf))


def split_gain(x, y, rule: SplitRule, criterion: SplitCriterion, leaf: LeafModelSpec | None = None) -> float:
    """Reduction of the node's criterion value achieved by ``rule``.

    Positive only when the split's loss is strictly below the node's
    unsplit criterion value; constant responses and pure-noise regions
    therefore yield no admissible gain.
    """
    x, y, mask = _checked_split(x, y, rule, criterion)
    if mask is None:
        return -math.inf
    spec = _lre_spec(criterion, leaf)
    return _group_loss(x, y, criterion, spec) - _children_loss(x, y, mask, criterion, spec)


def variance_matrix(x) -> np.ndarray:
    """Per-coordinate population variance table over the observation mode."""
    x, _ = _check_stacked(x)
    return x.var(axis=0)


# --- per-coordinate threshold scans ---------------------------------------


def _admissible(col: np.ndarray, v: np.ndarray, value_mode: str, min_child: int):
    """The admissible rules on one column as ascending ``(thresholds, n_left)`` arrays.

    ``v`` is ``col`` sorted.  A rule cuts at the lower of two distinct
    consecutive sorted values (observed mode) or at the column mean (mean
    mode), and leaves each child at least ``min_child`` rows and at least
    one.  ``n_left`` counts the rows ``<= threshold``.
    """
    n = v.size
    if value_mode == "observed":
        n_left = np.flatnonzero(v[:-1] < v[1:]) + 1
    else:
        thresholds = np.array([col.mean()])
        n_left = np.searchsorted(v, thresholds, side="right")
    low = max(min_child, 1)
    first, stop = np.searchsorted(n_left, (low, n - low + 1))  # n_left ascends
    n_left = n_left[first:stop]
    if value_mode == "observed":
        return v[n_left - 1], n_left
    return thresholds[first:stop], n_left


def _scan_counts(n: int, min_child: int) -> tuple[np.ndarray, np.ndarray]:
    """The float child sizes ``(k, n - k)`` at each cut an observed-value ``sse`` scan reads, for a node of ``n`` rows.

    Cut ``k`` sends the node's ``k`` smallest rows left.  The window holds
    the cuts that leave each child at least ``min_child`` rows (and one),
    from ``k = max(min_child, 1)`` up, and is empty when no cut does.  The
    counts are exact floats, built with no casts once per node and read,
    never written, by every coordinate's scan.
    """
    low = max(min_child, 1)
    k = np.arange(float(low), float(n - low + 1))
    return k, float(n) - k


def _sse_scan(keys: np.ndarray, ys: np.ndarray, k: np.ndarray, nr: np.ndarray) -> tuple[float, int] | None:
    """The best observed-value ``sse`` rule of a sorted column as ``(scan loss, n_left)``; None if none is admissible.

    ``keys`` are the node's rank keys of the column in ascending order,
    ``ys`` its responses in the same order, and ``(k, nr)`` the node's
    :func:`_scan_counts`.  Equal keys mean equal values, so a cut between
    two equal keys is masked, and the scan reads no feature value.  Each
    cut's loss takes the same float operations as a scan of every cut, so
    ties go to the smallest threshold and the loss lies within
    :func:`_margin` of the rule's exact child loss.
    """
    if k.size == 0:
        return None
    n, low = ys.size, int(k[0])
    if keys[low - 1] == keys[n - low]:  # keys ascend, so every cut in the window is tied
        return None
    tied = keys[low - 1:n - low] == keys[low:n - low + 1]  # cut k lies between rows k - 1 and k
    # One complex cumsum runs both prefix sums: a complex addition adds the
    # real and the imaginary parts apart, so each part is the float cumsum
    # of its own terms, bit for bit, at about the cost of one.
    z = np.empty(n, np.complex128)
    z.real = ys
    np.multiply(ys, ys, out=z.imag)
    np.cumsum(z, out=z)
    cum, cumsq = z.real, z.imag
    s_l, q_l = cum[low - 1:n - low], cumsq[low - 1:n - low]
    # var_l = q_l / k - (s_l / k) ** 2 and var_r likewise over the suffixes, floored at 0
    loss = q_l / k
    t = s_l / k
    loss -= np.multiply(t, t, out=t)
    np.maximum(loss, 0.0, out=loss)
    var_r = np.subtract(cumsq[-1], q_l)
    var_r /= nr
    t = np.subtract(cum[-1], s_l, out=t)
    t /= nr
    var_r -= np.multiply(t, t, out=t)
    loss += np.maximum(var_r, 0.0, out=var_r)
    # A loss is at most the node's sum of squared responses, which is
    # finite, so a masked cut never wins.
    np.putmask(loss, tied, np.inf)
    j = int(np.argmin(loss))
    return float(loss[j]), low + j


def _rank_dtype(n: int):
    """Key type of a dense-rank column over ``n`` rows (ranks below ``n``): uint16 whenever it can hold them."""
    return np.uint16 if n <= 2**16 else np.uint32 if n <= 2**32 else np.uint64


class _RankTable:
    """Dense ranks of the columns of one stacked input ``x``, each ranked the first time a search reads it.

    The table serves a fit or node that holds rows ``rows`` of ``x``, in
    that order; None means every row in order, and then each column's
    order is kept for later readers.  :meth:`take` gives the table of a
    subset of those rows, which shares the ranks.  :meth:`keyed_order`
    gives a column's order over the served rows with their ranks in that
    order, both from one gather of the served rows' ranks; equal sorted
    ranks are the ties an ``sse`` scan masks.
    """

    def __init__(self, x: np.ndarray, rows: np.ndarray | None = None, ranks: dict | None = None):
        self.x, self.rows = x, rows
        self.ranks = {} if ranks is None else ranks
        self.orders: dict = {}

    def take(self, rows: np.ndarray) -> _RankTable:
        """The table of the served rows at positions ``rows``."""
        return _RankTable(self.x, rows if self.rows is None else self.rows[rows], self.ranks)

    def order(self, coords: tuple[int, ...]) -> np.ndarray:
        """The stable argsort of column ``coords`` over the served rows."""
        return self.keyed_order(coords)[0]

    def keyed_order(self, coords: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The stable argsort of column ``coords`` over the served rows, and the served rows' ranks in that order.

        The sorted ranks ascend, and two of them are equal exactly when
        their rows' values are.
        """
        ranks = self.ranks.get(coords)
        if ranks is None:
            inverse = np.unique(_column(self.x, coords), return_inverse=True)[1]
            ranks = self.ranks[coords] = inverse.astype(_rank_dtype(inverse.size))
        if self.rows is None:
            order = self.orders.get(coords)
            if order is None:
                order = self.orders[coords] = np.argsort(ranks, kind="stable")
            return order, ranks.take(order)
        keys = ranks.take(self.rows)
        order = np.argsort(keys, kind="stable")
        return order, keys.take(order)


def _prefix_moments(rows: np.ndarray, counts: np.ndarray):
    """Yield ``(i, sums)`` block by block: ``sums[j]`` is ``sum(outer(r, r))`` over the first ``counts[i + j]`` rows.

    ``counts`` ascend.  The running sums advance one block of rows at a
    time, so no more than ``_MOMENT_BLOCK`` numbers of outer products, and
    of yielded sums, are held at once, whatever the node size.
    """
    w = rows.shape[1]
    block = max(1, _MOMENT_BLOCK // (w * w))
    last = int(counts[-1])
    total = np.zeros((1, w, w))
    done = 0
    for start in range(0, last, block):
        chunk = rows[start:min(start + block, last)]
        # sums[j] covers the first start + j rows
        sums = np.cumsum(np.concatenate([total, chunk[:, :, None] * chunk[:, None, :]]), axis=0)
        stop = int(np.searchsorted(counts, start + len(chunk), side="right"))
        if stop > done:
            yield done, sums[counts[done:stop] - start]
        done, total = stop, sums[-1:]


def _gram_residuals(moments: np.ndarray, m: np.ndarray, budget: float) -> np.ndarray:
    """``q - b' G^-1 b`` of each ``moments = [[G, b], [b', q]]`` summed over ``m`` rows, floored at 0.

    NaN marks a residual whose rounding error might exceed ``budget``.
    """
    p = moments.shape[1] - 1
    gram, b, q = moments[:, :p, :p], moments[:, :p, p], moments[:, p, p]
    with np.errstate(all="ignore"):
        scale = 1.0 / np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
        gs = gram * scale[:, :, None] * scale[:, None, :]
        bs = b * scale
        try:
            z = np.linalg.solve(gs, bs[..., None])[..., 0]
        except np.linalg.LinAlgError:  # an exactly singular Gram: the whole batch falls back
            return np.full(len(moments), np.nan)
        resid = q - np.einsum("ki,ki->k", bs, z)
        # Write u for the unit roundoff.  Scaled to unit diagonal, each
        # entry of the summed |d_i||d_i|' is at most 1 (Cauchy-Schwarz), so
        # the m-term running sums are off by at most (m+1)u per entry of gs,
        # (m+1)u sqrt(q) per entry of bs and (m+1)u q in q; the LU solve's
        # backward error adds about 3p u per entry of gs.  To first order
        # the fit bs'z then moves by at most p(m+3p)u |z|^2 through gs,
        # 2(m+1)u sqrt(pq)|z| through bs, and p^1.5 u sqrt(q)|z| + 2u q in
        # the dot product, q and the subtraction: in all, less than
        # 2(m+3p)u (sqrt(p)|z| + sqrt(q))^2.  NaN (a zero or overflowed
        # diagonal) fails the comparison.
        err = 2 * (m + 3 * p) * _EPS * (math.sqrt(p) * np.linalg.norm(z, axis=1) + np.sqrt(q)) ** 2
    return np.where(err <= budget, np.maximum(resid, 0.0), np.nan)


def _child_bounds(rows: np.ndarray, sizes: np.ndarray, budget: float) -> np.ndarray:
    """Least-squares lower bounds of the children made of the first ``sizes`` of ``rows``.

    ``rows`` are ``[1, vec(x_i), y_i]`` in accumulation order and
    ``sizes`` ascend.  A child with at most ``features + 1`` rows gets 0.
    Any other child's bound is its :func:`_gram_residuals`, from running
    sums of ``outer(r, r)``, or the :func:`_lstsq_residual` of its rows
    when the Gram residual is not accurate to within ``budget``.
    """
    p = rows.shape[1] - 1
    bounds = np.zeros(sizes.size)
    solve = np.flatnonzero(sizes > p)
    if solve.size == 0:
        return bounds
    for i, moments in _prefix_moments(rows, sizes[solve]):
        block = solve[i:i + len(moments)]
        bounds[block] = _gram_residuals(moments, sizes[block], budget)
    for i in np.flatnonzero(np.isnan(bounds)):
        bounds[i] = _lstsq_residual(rows[:sizes[i], :p], rows[:sizes[i], p])
    return bounds


def _eval_coord(x, y, coords, criterion, min_child, ranks, margin, design=None, counts=None) -> list:
    """The admissible rules at one coordinate as ``(bound, coords, threshold, n_left, left bound, right bound)``.

    Fits nothing; :func:`_score` scores the pooled rules.  ``ranks`` is
    the node's :class:`_RankTable` and ``margin`` the node's
    :func:`_margin`.  Observed-value ``sse`` offers only the coordinate's
    best prefix-scan rule, bounded by its scan loss: :func:`_sse_scan`
    reads the column's sorted rank keys and responses, with the node's
    ``counts`` (:func:`_scan_counts`), and the column is read once, at
    the winning threshold.  Under ``lre`` each
    rule carries its children's least-squares bounds over the node's
    ``design`` rows, ``[1, vec(x_i), y_i]``: read in the column's sorted
    order, a left child is a prefix of the rows and a right child a suffix,
    so both sides come from running sums, the right side's over the
    reversed rows.  Every other bound is 0, and ``lae`` and mean-value
    ``sse`` sort a copy of the column rather than rank it.
    """
    col = _column(x, coords)
    scan = criterion.kind == "sse" and criterion.value_mode == "observed"
    if not scan and criterion.kind != "lre":
        thresholds, n_left = _admissible(col, np.sort(col), criterion.value_mode, min_child)
        return [(0.0, coords, t, k, 0.0, 0.0) for t, k in zip(thresholds.tolist(), n_left.tolist())]
    if scan:
        order, keys = ranks.keyed_order(coords)
        best = _sse_scan(keys, y.take(order), *counts)
        if best is None:
            return []
        loss, k = best
        return [(loss, coords, float(col[order[k - 1]]), k, 0.0, 0.0)]
    order = ranks.order(coords)
    v = col[order]
    thresholds, n_left = _admissible(col, v, criterion.value_mode, min_child)
    if n_left.size == 0:
        return []
    design = design[order]
    left = _child_bounds(design, n_left, margin / 4)
    right = _child_bounds(design[::-1], (col.size - n_left)[::-1], margin / 4)[::-1]
    return [(bl + br, coords, t, k, bl, br) for t, k, bl, br
            in zip(thresholds.tolist(), n_left.tolist(), left.tolist(), right.tolist())]


def _margin(n: int, sum_sq: float) -> float:
    """How far a bound may lie above its rule's loss at a node of ``n`` rows and ``sum(y**2) = sum_sq``.

    Under ``lre``, ``BOUND_MARGIN`` absorbs the roundoff between a
    least-squares bound and the fitted child losses, and a Gram bound
    may stray from its least-squares residual by a quarter of the margin.
    """
    # An sse scan loss is not a bound but the loss the prefix sums give,
    # so it may lie on either side of the exact child loss.  Write u for
    # the unit roundoff, S = sum(y**2), A = sum(|y|) <= sqrt(n S) and
    # g = 1.01 (n+3) u.  The sequential prefix sums of y and y**2 are off
    # by at most g A and g S.  The left variance q/k - (s/k)**2 is then off
    # by at most 3.6 g S, since (s/k)**2 <= q/k <= S.  The right child
    # subtracts two prefixes, so with r >= 1 rows its q/r is off by
    # 2.6 g S and its mean by 2.6 g A / r; as A_r <= sqrt(r S), the squared
    # mean is off by at most 5.3 g sqrt(n) S + 0.6 g S, and the subtraction
    # rounds by 0.6 g S.  The two-pass ``np.var`` of the exact loss and
    # their sum are off by 2.6 g S, and the scan's sum rounds by 0.6 g S.
    # So scan and exact loss differ by less than g S (10.6 + 5.3 sqrt(n))
    # <= eps (n+3)(5.4 + 2.7 sqrt(n)) S.  The margin eps (n+3)(6 + 3 sqrt(n)) S
    # exceeds that by more than the rounding of ``best loss + margin``, so
    # a rule whose scan loss passes that limit loses strictly: it can
    # neither win nor tie.  The larger of the two margins keeps both
    # arguments sound; lae and mean-value sse bounds are 0, which any
    # margin >= 0 keeps sound.
    return max(BOUND_MARGIN, SSE_MARGIN * (n + 3) * (2 + math.sqrt(n))) * sum_sq


def _score(x, y, pool: list, criterion, spec, margin: float) -> SplitEvaluation | None:
    """Best rule of the :func:`_eval_coord` ``pool``, scored in ascending-bound order.

    ``spec`` is :func:`_lre_spec` of the criterion.  Scoring stops at the
    first rule whose bound exceeds the best loss so far by more than
    ``margin``; every later bound is at least as large.  A scored rule
    first computes the child with the larger bound, then more rows, then
    the left one, and skips the other when its loss plus the other's bound
    already passes the limit.  Either way skipped rules could not win or
    tie, and a scored loss is still the left child's plus the right
    child's, so the result does not depend on the visit order.
    """
    n = x.shape[0]
    best, limit = None, math.inf
    for bound, coords, thr, nl, bl, br in sorted(pool):
        if bound > limit:
            break
        rule = SplitRule(coords, thr)
        mask = _split_mask(x, rule)
        sides, bounds, losses = (mask, ~mask), (bl, br), [0.0, 0.0]
        first = 0 if (bl, nl) >= (br, n - nl) else 1
        losses[first] = _group_loss(x, y, criterion, spec, sides[first])
        if losses[first] + bounds[1 - first] > limit:
            continue
        losses[1 - first] = _group_loss(x, y, criterion, spec, sides[1 - first])
        cand = SplitEvaluation(rule, losses[0] + losses[1], nl, n - nl)
        if _better(cand, best):
            best, limit = cand, cand.loss + margin
    return best


def _better(cand: SplitEvaluation, best: SplitEvaluation | None) -> bool:
    """Tie-break toward lexicographically smaller coords, then smaller threshold."""
    if best is None:
        return True
    if cand.loss != best.loss:
        return cand.loss < best.loss
    return (cand.rule.coords, cand.rule.threshold) < (best.rule.coords, best.rule.threshold)


# --- coordinate orders ------------------------------------------------------


def _leverage_order(x: np.ndarray, strategy: SearchStrategy) -> list[tuple[int, ...]]:
    """A variance-weighted sample of coordinates, sorted.

    ``ceil(tau * grid size)`` coordinates are drawn without replacement
    with probability proportional to their per-coordinate variance
    (constant coordinates are never drawn), using a weighted reservoir
    keyed by the strategy seed.
    """
    variances = x.var(axis=0).ravel()
    nz = np.flatnonzero(variances > 0.0)
    k = min(int(math.ceil(strategy.tau * variances.size)), int(nz.size))
    keys = make_rng(strategy.seed).random(nz.size) ** (1.0 / variances[nz])
    chosen = nz[np.argsort(keys, kind="stable")[nz.size - k:]]
    return sorted(tuple(int(c) for c in np.unravel_index(flat, x.shape[1:])) for flat in chosen)


def _bb_order(feature_shape: tuple[int, ...], xi: int) -> list[tuple[int, ...]]:
    """Distinct box midpoints of a FIFO bisection walk, in first-visit order.

    The queue starts from the full per-mode index box.  Each box's first
    mode wider than ``xi`` is bisected and both halves are enqueued,
    whatever the midpoint scores, so the order is fixed in advance.
    """
    queue = deque([tuple((0, d - 1) for d in feature_shape)])
    mids: dict[tuple[int, ...], None] = {}
    while queue:
        box = queue.popleft()
        mids.setdefault(tuple((lo + hi) // 2 for lo, hi in box))
        for i, (lo, hi) in enumerate(box):
            if hi - lo > xi:
                m = (lo + hi) // 2
                queue.append(box[:i] + ((lo, m),) + box[i + 1:])
                queue.append(box[:i] + ((m + 1, hi),) + box[i + 1:])
                break
    return list(mids)


def _search(x, y, criterion, strategy, leaf, min_child, ranks=None) -> SplitEvaluation | None:
    """Pool the bounded rules of the strategy's coordinates, in order, and score them once.

    ``x`` and ``y`` are checked.  ``ranks`` is the node's rank table (see
    :func:`find_best_split`), or None to start one of ``x``.
    :func:`_score` picks the best rule under the tie-break.
    """
    if x.shape[0] < 2:
        raise ValueError("need at least two samples to split")
    if ranks is None:
        ranks = _RankTable(x)
    if strategy.kind == "exhaustive":
        order = np.ndindex(*x.shape[1:])
    elif strategy.kind == "leverage":
        order = _leverage_order(x, strategy)
    else:
        order = _bb_order(x.shape[1:], int(strategy.xi))
    margin = _margin(x.shape[0], float(np.dot(y, y)))
    design = np.hstack([_affine_design(x), y[:, None]]) if criterion.kind == "lre" else None
    counts = _scan_counts(x.shape[0], min_child)
    pool = []
    for coords in order:
        pool += _eval_coord(x, y, coords, criterion, min_child, ranks, margin, design, counts)
    return _score(x, y, pool, criterion, _lre_spec(criterion, leaf), margin)


def find_best_split(
    x,
    y,
    criterion: SplitCriterion,
    strategy: SearchStrategy,
    leaf: LeafModelSpec | None = None,
    *,
    min_child: int = 1,
    _ranks: _RankTable | None = None,
) -> SplitEvaluation | None:
    """Best rule under the search named by ``strategy.kind``; None if nothing is admissible.

    ``exhaustive`` scans every coordinate, ``leverage`` a variance-weighted
    sample of ``ceil(tau * grid size)`` of them (:func:`_leverage_order`;
    ``tau=1`` reproduces the exhaustive result), and ``bb`` the box
    midpoints of a bisection walk (:func:`_bb_order`; ``xi=0`` reproduces
    it, and for ``xi > 0`` a midpoint stands for its box unrelaxed, so the
    search is a heuristic).  Each child keeps at least ``min_child`` rows,
    an int >= 0.  ``_ranks`` is a rank table whose rows are exactly this
    ``x``'s (:class:`_RankTable`); without it the call ranks ``x`` itself.
    It saves ranking only and never changes the result.
    """
    x, y = _inputs(x, y, criterion)
    _check_int(min_child, "min_child", 0)
    return _search(x, y, criterion, strategy, leaf, min_child, _ranks)
