"""Split criteria and split search for tensor-input trees.

A split is an axis-aligned rule on one feature coordinate: rows with
``X[:, j1, j2] <= threshold`` go left, the rest go right.  Three
criteria score a candidate rule:

* ``sse`` - sum over the two children of the population variance of the
  responses (scale-free in the child sizes).
* ``lae`` - sum over the two children of the squared reconstruction
  error of a low-rank (CP or Tucker) decomposition of the child's
  stacked input tensor.  Does not look at the responses.
* ``lre`` - sum over the two children of the squared training residuals
  of a low-rank regression fitted inside each child.

Thresholds come either from the observed values of the coordinate or
from its node-local mean (one candidate per coordinate).  Three search
strategies scan the coordinate grid: exhaustive enumeration, variance-
weighted leverage-score sampling of coordinates, and a branch-and-bound
walk over index boxes.  With ``tau=1`` the sampler visits every useful
coordinate and with ``xi=0`` the box walk visits every coordinate, so
both reduce to the exhaustive result.

Ties are broken toward the lexicographically smallest coordinates, then
the smallest threshold, independent of evaluation order.

Under ``lre`` most candidates are ruled out without fitting their two
child regressions.  CP and Tucker regressions (with or without an
intercept) and the mean fallback are all affine functions of
``vec(X_i)``, so no child fit can leave a smaller residual than the
unconstrained least-squares fit of the child's responses on
``[1, vec(X_i)]``.  The sum of that residual over both children is a
lower bound on the candidate's loss.  A child with at most
``features + 1`` samples gets a bound of 0 and is not solved.  A
candidate is skipped when its bound exceeds the best loss seen so far in
the search by more than ``BOUND_MARGIN`` times the node's sum of squared
responses; the margin absorbs roundoff between the bound and the fitted
loss.  A skipped candidate could therefore never have won or tied, so
every strategy returns the same rule and loss as without the bound.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ._rng import make_rng
from .decomposition import AlsConfig, approximation_error, cp_als, tucker_als
from .leaf_models import LeafModelSpec, fit_leaf, predict_leaf

# Relative slack on the least-squares bound of an ``lre`` candidate, as a
# fraction of the node's sum of squared responses.
BOUND_MARGIN = 1e-9


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
        if self.kind not in ("sse", "lae", "lre"):
            raise ValueError(f"unknown criterion {self.kind!r}")
        if self.decomp not in ("cp", "tucker"):
            raise ValueError(f"unknown decomposition {self.decomp!r}")
        if self.value_mode not in ("observed", "mean"):
            raise ValueError(f"unknown value mode {self.value_mode!r}")
        if self.kind == "sse" and self.split_rank is not None:
            raise ValueError("sse takes no split_rank")
        if self.kind != "sse" and self.split_rank is None:
            raise ValueError(f"{self.kind} needs a split_rank")


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
        if self.kind not in ("exhaustive", "leverage", "bb"):
            raise ValueError(f"unknown strategy {self.kind!r}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.xi < 0:
            raise ValueError("xi must be >= 0")


@dataclass(frozen=True)
class SplitEvaluation:
    """Best rule found by a search, with its loss and child sizes."""

    rule: SplitRule
    loss: float
    left_count: int
    right_count: int


def _check_stacked(x: np.ndarray) -> tuple[int, ...]:
    if x.ndim < 3 or x.ndim > 4:
        raise ValueError(f"stacked input must have 2 or 3 feature modes, got shape {x.shape}")
    return x.shape[1:]


def _check_coords(coords: tuple[int, ...], feature_shape: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless ``coords`` index one cell of ``feature_shape``."""
    if len(coords) != len(feature_shape):
        raise ValueError(f"coords {coords} do not index feature shape {feature_shape}")
    for c, d in zip(coords, feature_shape):
        if not 0 <= c < d:
            raise ValueError(f"coords {coords} out of range for feature shape {feature_shape}")


def _column(x: np.ndarray, coords: tuple[int, ...]) -> np.ndarray:
    _check_coords(coords, _check_stacked(x))
    return x[(slice(None),) + tuple(coords)]


def _population_variance(y: np.ndarray) -> float:
    return float(np.var(y))


def candidate_thresholds(x, coords: tuple[int, ...], value_mode: str) -> np.ndarray:
    """Thresholds searched at one coordinate.

    Observed mode returns the sorted distinct values of the coordinate's
    column; mean mode returns the single node-local column mean.
    """
    x = np.asarray(x, dtype=np.float64)
    col = _column(x, tuple(coords))
    if value_mode == "observed":
        return np.unique(col)
    if value_mode == "mean":
        return np.array([col.mean()])
    raise ValueError(f"unknown value mode {value_mode!r}")


def evaluate_sse(x, y, rule: SplitRule) -> float:
    """Sum of the two children's response variances; ``inf`` if a child is empty."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != x.shape[0]:
        raise ValueError("response length does not match sample count")
    mask = _column(x, tuple(rule.coords)) <= rule.threshold
    n_left = int(mask.sum())
    if n_left == 0 or n_left == y.size:
        return math.inf
    return _population_variance(y[mask]) + _population_variance(y[~mask])


def _lae_ranks(crit: SplitCriterion, shape: tuple[int, ...]) -> tuple[int, ...]:
    r = crit.split_rank
    if isinstance(r, (int, np.integer)):
        return tuple(min(int(r), d) for d in shape)
    ranks = tuple(int(v) for v in r)
    if len(ranks) != len(shape):
        raise ValueError(f"need {len(shape)} split ranks, got {len(ranks)}")
    return tuple(min(v, d) for v, d in zip(ranks, shape))


def _lae_min_samples(crit: SplitCriterion) -> int:
    r = crit.split_rank
    return int(r) if isinstance(r, (int, np.integer)) else int(r[0])


def _lae_term(x_group: np.ndarray, crit: SplitCriterion) -> float:
    """One child's low-rank reconstruction error.

    Groups too small to support the split rank fall back to the error of
    the mean tensor, which keeps every candidate comparable and never
    consults the responses.
    """
    n = x_group.shape[0]
    if n < max(1, _lae_min_samples(crit)):
        diff = x_group - x_group.mean(axis=0)
        return float(np.dot(diff.ravel(), diff.ravel()))
    if crit.decomp == "cp":
        decomp, _ = cp_als(x_group, int(crit.split_rank), crit.als)
    else:
        decomp, _ = tucker_als(x_group, _lae_ranks(crit, x_group.shape), crit.als)
    return approximation_error(x_group, decomp)


def evaluate_lae(x, rule: SplitRule, criterion: SplitCriterion) -> float:
    """Summed low-rank reconstruction error over the two children; ``inf`` if one is empty."""
    if criterion.kind != "lae":
        raise ValueError("criterion kind must be 'lae'")
    x = np.asarray(x, dtype=np.float64)
    mask = _column(x, tuple(rule.coords)) <= rule.threshold
    n_left = int(mask.sum())
    if n_left == 0 or n_left == x.shape[0]:
        return math.inf
    return _lae_term(x[mask], criterion) + _lae_term(x[~mask], criterion)


def _lre_spec(criterion: SplitCriterion, leaf: LeafModelSpec | None) -> LeafModelSpec:
    """Regression spec used inside the LRE criterion.

    The split rank comes from the criterion (it may differ from the leaf
    regression rank); family and intercept follow the leaf spec when one
    is given, otherwise the criterion's ``decomp``.
    """
    kind = criterion.decomp
    intercept = True
    if leaf is not None and leaf.kind != "mean":
        kind = leaf.kind
        intercept = leaf.intercept
    return LeafModelSpec(
        kind=kind, rank=criterion.split_rank, als=criterion.als, intercept=intercept
    )


def _lre_term(x_group: np.ndarray, y_group: np.ndarray, spec: LeafModelSpec) -> float:
    model = fit_leaf(x_group, y_group, spec)
    resid = y_group - predict_leaf(model, x_group)
    return float(np.dot(resid, resid))


def _affine_design(x: np.ndarray) -> np.ndarray:
    """Rows ``[1, vec(x_i)]``: the linear family that contains every leaf model."""
    n = x.shape[0]
    return np.hstack([np.ones((n, 1)), x.reshape(n, -1)])


def _lre_bound(design: np.ndarray, y: np.ndarray, mask: np.ndarray, limit: float = math.inf) -> float:
    """Lower bound on the ``lre`` loss of the split ``mask``: summed child least-squares residuals.

    A child with no more rows than ``design`` has columns contributes 0,
    always a valid bound, without a solve.  Stops after the left child
    when its residual alone already exceeds ``limit``.
    """
    bound = 0.0
    for rows in (mask, ~mask):
        d, t = design[rows], y[rows]
        if d.shape[0] > d.shape[1]:
            resid = t - d @ np.linalg.lstsq(d, t, rcond=None)[0]
            bound += float(np.dot(resid, resid))
        if bound > limit:
            break
    return bound


def evaluate_lre(x, y, rule: SplitRule, criterion: SplitCriterion, leaf: LeafModelSpec | None = None) -> float:
    """Summed squared training residuals of per-child low-rank regressions."""
    if criterion.kind != "lre":
        raise ValueError("criterion kind must be 'lre'")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != x.shape[0]:
        raise ValueError("response length does not match sample count")
    mask = _column(x, tuple(rule.coords)) <= rule.threshold
    n_left = int(mask.sum())
    if n_left == 0 or n_left == x.shape[0]:
        return math.inf
    spec = _lre_spec(criterion, leaf)
    return _lre_term(x[mask], y[mask], spec) + _lre_term(x[~mask], y[~mask], spec)


def node_criterion_value(x, y, criterion: SplitCriterion, leaf: LeafModelSpec | None = None) -> float:
    """The criterion evaluated on a node as a single unsplit group.

    For ``sse`` this is the node's response variance (the value a
    degenerate everything-on-one-side rule would score); for ``lae`` and
    ``lre`` it is the node's own low-rank term.  Either way the value is
    directly comparable to a candidate split's loss, which is how tree
    growth decides whether a split actually improves on not splitting.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if criterion.kind == "sse":
        return _population_variance(y)
    if criterion.kind == "lae":
        return _lae_term(x, criterion)
    return _lre_term(x, y, _lre_spec(criterion, leaf))


def split_gain(x, y, rule: SplitRule, criterion: SplitCriterion, leaf: LeafModelSpec | None = None) -> float:
    """Reduction of the node's criterion value achieved by ``rule``.

    Positive only when the split's loss is strictly below the node's
    unsplit criterion value; constant responses and pure-noise regions
    therefore yield no admissible gain.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    mask = _column(x, tuple(rule.coords)) <= rule.threshold
    n_left = int(mask.sum())
    if n_left == 0 or n_left == x.shape[0]:
        return -math.inf
    parent = node_criterion_value(x, y, criterion, leaf)
    if criterion.kind == "sse":
        children = _population_variance(y[mask]) + _population_variance(y[~mask])
    elif criterion.kind == "lae":
        children = _lae_term(x[mask], criterion) + _lae_term(x[~mask], criterion)
    else:
        spec = _lre_spec(criterion, leaf)
        children = _lre_term(x[mask], y[mask], spec) + _lre_term(x[~mask], y[~mask], spec)
    return parent - children


def variance_matrix(x) -> np.ndarray:
    """Per-coordinate population variance table over the observation mode."""
    x = np.asarray(x, dtype=np.float64)
    _check_stacked(x)
    return x.var(axis=0)


# --- per-coordinate threshold scans ---------------------------------------


def _scan_sse_observed(col: np.ndarray, y: np.ndarray, min_child: int):
    """Best observed-value SSE threshold on one coordinate via prefix sums.

    Returns ``(loss, threshold, n_left, n_right)`` or None when no
    admissible boundary exists.  Losses tie toward the smallest
    threshold because candidates are scanned in ascending value order.
    """
    n = col.size
    order = np.argsort(col, kind="stable")
    v = col[order]
    ys = y[order]
    cum = np.cumsum(ys)
    cumsq = np.cumsum(ys * ys)
    k = np.arange(1, n)
    ok = (v[:-1] < v[1:]) & (k >= min_child) & ((n - k) >= min_child)
    if not ok.any():
        return None
    s_l = cum[:-1]
    q_l = cumsq[:-1]
    var_l = np.maximum(q_l / k - (s_l / k) ** 2, 0.0)
    nr = n - k
    var_r = np.maximum((cumsq[-1] - q_l) / nr - ((cum[-1] - s_l) / nr) ** 2, 0.0)
    loss = np.where(ok, var_l + var_r, np.inf)
    j = int(np.argmin(loss))
    return float(loss[j]), float(v[j]), int(k[j]), int(n - k[j])


def _eval_coord(x, y, coords, criterion, leaf, min_child, best_loss):
    """Best admissible threshold at one coordinate, or None.

    ``best_loss`` is the best loss the search has found so far.  Under
    ``lre``, thresholds whose least-squares bound exceeds it (or this
    coordinate's own best) by more than the margin are not fitted; they
    could not win, so the result is the same as an unbounded scan
    whenever it can beat ``best_loss``.
    """
    col = _column(x, coords)
    n = col.size
    if criterion.kind == "sse" and criterion.value_mode == "observed":
        hit = _scan_sse_observed(col, y, min_child)
        if hit is None:
            return None
        # The prefix scan only locates the best threshold; the reported
        # loss is recomputed with the same arithmetic as evaluate_sse so
        # that rules inducing identical partitions from different
        # coordinates compare exactly equal during tie-breaking.
        _, thr, nl, nr = hit
        mask = col <= thr
        loss = _population_variance(y[mask]) + _population_variance(y[~mask])
        return SplitEvaluation(SplitRule(coords, thr), float(loss), nl, nr)

    thresholds = candidate_thresholds(x, coords, criterion.value_mode)
    if criterion.kind == "lre":
        spec = _lre_spec(criterion, leaf)
        design = _affine_design(x)
        margin = BOUND_MARGIN * float(np.dot(y, y))
    best = None
    for thr in thresholds:
        mask = col <= thr
        nl = int(mask.sum())
        nr = n - nl
        if nl < min_child or nr < min_child:
            continue
        if criterion.kind == "lre":
            limit = min(best_loss, _loss(best)) + margin
            if limit < math.inf and _lre_bound(design, y, mask, limit) > limit:
                continue
        if criterion.kind == "sse":
            loss = _population_variance(y[mask]) + _population_variance(y[~mask])
        elif criterion.kind == "lae":
            loss = _lae_term(x[mask], criterion) + _lae_term(x[~mask], criterion)
        else:
            loss = _lre_term(x[mask], y[mask], spec) + _lre_term(x[~mask], y[~mask], spec)
        if best is None or loss < best.loss:
            best = SplitEvaluation(SplitRule(coords, float(thr)), float(loss), nl, nr)
    return best


def _better(cand: SplitEvaluation, best: SplitEvaluation | None) -> bool:
    """Tie-break toward lexicographically smaller coords, then smaller threshold."""
    if best is None:
        return True
    if cand.loss != best.loss:
        return cand.loss < best.loss
    return (cand.rule.coords, cand.rule.threshold) < (best.rule.coords, best.rule.threshold)


def _loss(best: SplitEvaluation | None) -> float:
    return math.inf if best is None else best.loss


def _prepare(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    feature_shape = _check_stacked(x)
    if y.size != x.shape[0]:
        raise ValueError("response length does not match sample count")
    if x.shape[0] < 2:
        raise ValueError("need at least two samples to split")
    return x, y, feature_shape


def find_best_split_exhaustive(
    x, y, criterion: SplitCriterion, leaf: LeafModelSpec | None = None, *, min_child: int = 1
) -> SplitEvaluation | None:
    """Scan every coordinate and candidate threshold; None if nothing is admissible."""
    x, y, feature_shape = _prepare(x, y)
    best = None
    for coords in np.ndindex(*feature_shape):
        cand = _eval_coord(x, y, coords, criterion, leaf, min_child, _loss(best))
        if cand is not None and _better(cand, best):
            best = cand
    return best


def find_best_split_leverage(
    x,
    y,
    criterion: SplitCriterion,
    strategy: SearchStrategy,
    leaf: LeafModelSpec | None = None,
    *,
    min_child: int = 1,
) -> SplitEvaluation | None:
    """Exhaust thresholds within a variance-weighted sample of coordinates.

    ``ceil(tau * grid size)`` coordinates are drawn without replacement
    with probability proportional to their per-coordinate variance
    (constant coordinates are never drawn), using a weighted reservoir
    keyed by the strategy seed.  With ``tau=1`` every non-constant
    coordinate is scanned, which reproduces the exhaustive result.
    """
    x, y, feature_shape = _prepare(x, y)
    if strategy.kind != "leverage":
        raise ValueError("strategy kind must be 'leverage'")
    variances = variance_matrix(x).ravel()
    nz = np.flatnonzero(variances > 0.0)
    if nz.size == 0:
        return None
    k = min(int(math.ceil(strategy.tau * variances.size)), int(nz.size))
    rng = make_rng(strategy.seed)
    u = rng.random(nz.size)
    keys = u ** (1.0 / variances[nz])
    chosen = nz[np.argsort(keys, kind="stable")[-k:]]
    coord_list = sorted(
        tuple(int(c) for c in np.unravel_index(flat, feature_shape)) for flat in chosen
    )
    best = None
    for coords in coord_list:
        cand = _eval_coord(x, y, coords, criterion, leaf, min_child, _loss(best))
        if cand is not None and _better(cand, best):
            best = cand
    return best


def find_best_split_bb(
    x,
    y,
    criterion: SplitCriterion,
    strategy: SearchStrategy,
    leaf: LeafModelSpec | None = None,
    *,
    min_child: int = 1,
) -> SplitEvaluation | None:
    """Branch-and-bound walk over index boxes of the coordinate grid.

    A FIFO queue starts from the full per-mode index box.  Each box is
    scored at its midpoint coordinates; the first mode whose index range
    is wider than ``xi`` is bisected and both halves enqueued.  With
    ``xi=0`` every coordinate is eventually a singleton box, so the walk
    reproduces the exhaustive result; large ``xi`` stops at the global
    midpoint.  The midpoint score itself is the box's bound (no
    relaxation), so for ``xi > 0`` this is a structured search heuristic
    rather than an exact method.
    """
    x, y, feature_shape = _prepare(x, y)
    if strategy.kind != "bb":
        raise ValueError("strategy kind must be 'bb'")
    xi = int(strategy.xi)
    queue = deque([tuple((0, d - 1) for d in feature_shape)])
    cache: dict[tuple[int, ...], SplitEvaluation | None] = {}
    best = None
    while queue:
        box = queue.popleft()
        mid = tuple((lo + hi) // 2 for lo, hi in box)
        if mid in cache:
            cand = cache[mid]
        else:
            cand = _eval_coord(x, y, mid, criterion, leaf, min_child, _loss(best))
            cache[mid] = cand
        if cand is not None and _better(cand, best):
            best = cand
        for i, (lo, hi) in enumerate(box):
            if hi - lo > xi:
                m = (lo + hi) // 2
                left = list(box)
                right = list(box)
                left[i] = (lo, m)
                right[i] = (m + 1, hi)
                queue.append(tuple(left))
                queue.append(tuple(right))
                break
    return best


def find_best_split(
    x,
    y,
    criterion: SplitCriterion,
    strategy: SearchStrategy,
    leaf: LeafModelSpec | None = None,
    *,
    min_child: int = 1,
) -> SplitEvaluation | None:
    """Dispatch to the search named by ``strategy.kind``."""
    if strategy.kind == "exhaustive":
        return find_best_split_exhaustive(x, y, criterion, leaf, min_child=min_child)
    if strategy.kind == "leverage":
        return find_best_split_leverage(x, y, criterion, strategy, leaf, min_child=min_child)
    return find_best_split_bb(x, y, criterion, strategy, leaf, min_child=min_child)
