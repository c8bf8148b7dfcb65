"""Split criteria and searches against an independent brute-force enumerator.

The enumerator below loops every coordinate and threshold itself,
scoring each rule through the public rule evaluator, with its own
tie handling.  Comparing it to the search functions checks coordinate
enumeration, threshold generation and tie-breaking independently of the
search implementations' internal scans.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from tensortree import splitting
from tensortree.data import SyntheticSpec, generate
from tensortree.decomposition import AlsConfig
from tensortree.ensemble import BoostingConfig, ForestConfig, fit_boosting, fit_forest
from tensortree.leaf_models import LeafModelSpec
from tensortree.serialize import dumps
from tensortree.splitting import (
    SearchStrategy,
    SplitCriterion,
    SplitEvaluation,
    SplitRule,
    _child_orders,
    candidate_thresholds,
    evaluate_split,
    find_best_split,
    node_criterion_value,
    split_gain,
    variance_matrix,
)
from tensortree.tree import GrowConfig, grow

FAST_ALS = AlsConfig(max_iterations=6, rel_tolerance=1e-7, seed=0)
SSE = SplitCriterion(kind="sse")


def enumerate_best(x, y, criterion, leaf=None):
    """Independent oracle: try every (coords, threshold) pair explicitly."""
    feature_shape = x.shape[1:]
    best = None
    for coords in sorted(np.ndindex(*feature_shape)):
        col = x[(slice(None),) + coords]
        if criterion.value_mode == "observed":
            thresholds = sorted(set(col.tolist()))
        else:
            thresholds = [col.mean()]
        for thr in thresholds:
            rule = SplitRule(coords, float(thr))
            n_left = int((col <= thr).sum())
            if n_left == 0 or n_left == len(col):
                continue
            loss = evaluate_split(x, y, rule, criterion, leaf)
            if math.isinf(loss):
                continue
            key = (loss, coords, float(thr))
            if best is None or key < best[0]:
                best = (key, rule, n_left, len(col) - n_left)
    return best


def random_instance(seed, criterion_kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    d1 = int(rng.integers(2, 4))
    d2 = int(rng.integers(2, 4))
    x = rng.uniform(-1, 1, size=(n, d1, d2))
    y = rng.normal(size=n)
    return x, y


class TestEvaluateSse:
    def test_perfect_separation_is_zero(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1)
        y = np.array([1.0, 1.0, 10.0, 10.0])
        assert evaluate_split(x, y, SplitRule((0, 0), 2.0), SSE) == 0.0

    def test_constant_response_zero_everywhere(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 2, 2))
        y = np.full(8, 3.5)
        for coords in np.ndindex(2, 2):
            for thr in candidate_thresholds(x, coords, "observed")[:-1]:
                assert evaluate_split(x, y, SplitRule(coords, float(thr)), SSE) == 0.0

    def test_singleton_children_zero_variance(self):
        x = np.array([0.0, 1.0]).reshape(2, 1, 1)
        assert evaluate_split(x, np.array([0.0, 2.0]), SplitRule((0, 0), 0.0), SSE) == 0.0

    def test_empty_child_is_inadmissible(self):
        x = np.array([0.0, 1.0]).reshape(2, 1, 1)
        assert math.isinf(evaluate_split(x, np.array([0.0, 2.0]), SplitRule((0, 0), 5.0), SSE))

    def test_shift_and_scale_keep_chosen_rule(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(12, 2, 2))
        y = rng.normal(size=12)
        crit = SplitCriterion(kind="sse")
        base = find_best_split(x, y, crit, SearchStrategy())
        shifted = find_best_split(x, y + 11.0, crit, SearchStrategy())
        scaled = find_best_split(x, -2.5 * y, crit, SearchStrategy())
        assert base.rule == shifted.rule == scaled.rule
        assert scaled.loss == pytest.approx(2.5**2 * base.loss, rel=1e-9)


class TestEvaluateLae:
    def test_exact_rank1_children(self):
        from tensortree.tensor_ops import outer

        rng = np.random.default_rng(2)
        # children are genuine vector outer products (CP rank 1); the
        # first slice entries have opposite signs across the groups so
        # column (0, 0) separates them
        b1, c1 = np.abs(rng.normal(size=2)) + 0.1, np.abs(rng.normal(size=2)) + 0.1
        b2, c2 = np.abs(rng.normal(size=2)) + 0.1, np.abs(rng.normal(size=2)) + 0.1
        left = outer([rng.uniform(0.5, 1.0, 4), b1, c1])
        right = outer([rng.uniform(-1.0, -0.5, 4), b2, c2])
        x = np.concatenate([left, right])
        crit = SplitCriterion(kind="lae", split_rank=1, als=AlsConfig(max_iterations=100))
        thr = float(np.sort(x[:, 0, 0])[3])
        loss = evaluate_split(x, None, SplitRule((0, 0), thr), crit)
        assert loss < 1e-8

    def test_full_rank_is_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 2, 2))
        # Tucker at full per-mode ranks is lossless in each child; the
        # tuple form keeps the observation-mode rank within child sizes
        crit = SplitCriterion(kind="lae", split_rank=(3, 2, 2), decomp="tucker")
        thr = float(np.sort(x[:, 0, 0])[2])
        assert evaluate_split(x, None, SplitRule((0, 0), thr), crit) < 1e-10

    def test_y_independence_of_chosen_rule(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 2, 2))
        y = rng.normal(size=10)
        crit = SplitCriterion(kind="lae", split_rank=1, als=FAST_ALS)
        a = find_best_split(x, y, crit, SearchStrategy())
        b = find_best_split(x, y[::-1].copy(), crit, SearchStrategy())
        assert a.rule == b.rule and a.loss == b.loss


class TestEvaluateLre:
    def test_noiseless_rank1_signal(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(30, 3, 3))
        b0 = np.outer(rng.normal(size=3), rng.normal(size=3))
        y = x.reshape(30, -1) @ b0.ravel()
        crit = SplitCriterion(kind="lre", split_rank=1, als=AlsConfig(max_iterations=60))
        leaf = LeafModelSpec(kind="cp", rank=1)
        thr = float(np.sort(x[:, 0, 0])[14])
        assert evaluate_split(x, y, SplitRule((0, 0), thr), crit, leaf) < 1e-6

    def test_constant_response_with_intercept(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 2, 2))
        y = np.full(20, 4.0)
        crit = SplitCriterion(kind="lre", split_rank=1, als=FAST_ALS)
        thr = float(np.sort(x[:, 1, 1])[9])
        assert evaluate_split(x, y, SplitRule((1, 1), thr), crit) == pytest.approx(0.0, abs=1e-9)

    def test_equals_sum_of_independent_child_fits(self):
        from tensortree.leaf_models import fit_leaf, predict_leaf

        rng = np.random.default_rng(7)
        x = rng.normal(size=(16, 2, 2))
        y = rng.normal(size=16)
        crit = SplitCriterion(kind="lre", split_rank=1, als=FAST_ALS)
        leaf = LeafModelSpec(kind="cp", rank=2, als=FAST_ALS)
        thr = float(np.sort(x[:, 0, 1])[7])
        rule = SplitRule((0, 1), thr)
        got = evaluate_split(x, y, rule, crit, leaf)
        spec = LeafModelSpec(kind="cp", rank=crit.split_rank, als=crit.als, intercept=True)
        mask = x[:, 0, 1] <= thr
        want = 0.0
        for rows in (mask, ~mask):
            m = fit_leaf(x[rows], y[rows], spec)
            want += float(np.sum((y[rows] - predict_leaf(m, x[rows])) ** 2))
        assert got == pytest.approx(want, rel=1e-12)


class TestCandidateThresholds:
    def test_observed_dedup_sort(self):
        x = np.array([3.0, 1.0, 3.0]).reshape(3, 1, 1)
        assert np.array_equal(candidate_thresholds(x, (0, 0), "observed"), [1.0, 3.0])

    def test_mean_mode_single_value(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1)
        assert np.array_equal(candidate_thresholds(x, (0, 0), "mean"), [2.5])

    def test_constant_column_inadmissible(self):
        x = np.full((5, 1, 1), 2.0)
        y = np.arange(5.0)
        (thr,) = candidate_thresholds(x, (0, 0), "observed")
        assert math.isinf(evaluate_split(x, y, SplitRule((0, 0), float(thr)), SSE))
        assert find_best_split(x, y, SplitCriterion(kind="sse"), SearchStrategy()) is None


class TestVarianceMatrix:
    def test_constant_input_zero(self):
        assert np.array_equal(variance_matrix(np.ones((4, 2, 3))), np.zeros((2, 3)))

    def test_hand_value_population_divisor(self):
        x = np.zeros((2, 1, 1))
        x[:, 0, 0] = [0.0, 2.0]
        assert variance_matrix(x)[0, 0] == 1.0

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(9, 2, 2))
        perm = rng.permutation(9)
        assert np.allclose(variance_matrix(x), variance_matrix(x[perm]), atol=1e-12)


class TestExhaustiveSearch:
    def test_known_zero_loss_dataset(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1)
        y = np.array([1.0, 1.0, 10.0, 10.0])
        ev = find_best_split(x, y, SplitCriterion(kind="sse"), SearchStrategy())
        assert ev.rule == SplitRule((0, 0), 2.0)
        assert ev.loss == 0.0
        assert (ev.left_count, ev.right_count) == (2, 2)

    def test_constant_input_returns_none(self):
        assert (
            find_best_split(np.ones((6, 2, 2)), np.arange(6.0), SplitCriterion(kind="sse"), SearchStrategy())
            is None
        )

    @pytest.mark.parametrize("kind", ["sse", "lae", "lre"])
    @pytest.mark.parametrize("value_mode", ["observed", "mean"])
    def test_matches_enumerator_on_random_instances(self, kind, value_mode):
        for seed in range(12):
            x, y = random_instance(100 + seed, kind)
            rank = 1 + seed % 2
            crit = SplitCriterion(
                kind=kind,
                split_rank=None if kind == "sse" else rank,
                value_mode=value_mode,
                als=FAST_ALS,
            )
            leaf = LeafModelSpec(kind="cp", rank=rank, als=FAST_ALS) if kind == "lre" else None
            got = find_best_split(x, y, crit, SearchStrategy(), leaf)
            want = enumerate_best(x, y, crit, leaf)
            assert got.rule == want[1]
            assert got.loss == pytest.approx(want[0][0], abs=1e-9)
            assert (got.left_count, got.right_count) == (want[2], want[3])


class TestLeverageSearch:
    def test_tau_one_reduces_to_exhaustive(self):
        for seed in range(8):
            x, y = random_instance(200 + seed, "sse")
            crit = SplitCriterion(kind="sse")
            strat = SearchStrategy(kind="leverage", tau=1.0, seed=seed)
            a = find_best_split(x, y, crit, SearchStrategy())
            b = find_best_split(x, y, crit, strat)
            assert a.rule == b.rule and a.loss == b.loss

    def test_single_varying_coordinate_always_sampled(self):
        rng = np.random.default_rng(9)
        x = np.ones((10, 2, 2))
        x[:, 1, 0] = rng.normal(size=10)
        y = x[:, 1, 0] * 2.0
        strat = SearchStrategy(kind="leverage", tau=0.25, seed=3)
        ev = find_best_split(x, y, SplitCriterion(kind="sse"), strat)
        assert ev.rule.coords == (1, 0)

    def test_all_constant_returns_none(self):
        strat = SearchStrategy(kind="leverage", tau=0.5, seed=0)
        assert (
            find_best_split(np.ones((5, 2, 2)), np.arange(5.0), SplitCriterion(kind="sse"), strat)
            is None
        )

    def test_seed_determinism(self):
        x, y = random_instance(300, "sse")
        strat = SearchStrategy(kind="leverage", tau=0.5, seed=11)
        crit = SplitCriterion(kind="sse")
        a = find_best_split(x, y, crit, strat)
        b = find_best_split(x, y, crit, strat)
        assert a == b


class TestBranchBoundSearch:
    def test_xi_zero_reduces_to_exhaustive(self):
        for seed in range(8):
            x, y = random_instance(400 + seed, "sse")
            crit = SplitCriterion(kind="sse")
            strat = SearchStrategy(kind="bb", xi=0, seed=0)
            a = find_best_split(x, y, crit, SearchStrategy())
            b = find_best_split(x, y, crit, strat)
            assert a.rule == b.rule and a.loss == b.loss

    def test_single_cell_grid(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(8, 1, 1))
        y = x[:, 0, 0] ** 2
        for xi in (0, 3, 10):
            ev = find_best_split(x, y, SplitCriterion(kind="sse"), SearchStrategy(kind="bb", xi=xi))
            assert ev is not None and ev.rule.coords == (0, 0)

    def test_large_xi_evaluates_only_global_midpoint(self):
        # 4x4 grid, xi >= 3 never bisects: only the (1, 1) midpoint is scored
        rng = np.random.default_rng(11)
        x = rng.normal(size=(10, 4, 4))
        y = 5.0 * x[:, 3, 3] + 0.01 * rng.normal(size=10)
        strat = SearchStrategy(kind="bb", xi=4)
        ev = find_best_split(x, y, SplitCriterion(kind="sse"), strat)
        assert ev.rule.coords == (1, 1)

    def test_eventually_visits_every_coordinate(self):
        # the best coordinate sits at the grid corner, far from midpoints
        rng = np.random.default_rng(12)
        x = rng.normal(size=(12, 3, 3))
        y = np.where(x[:, 2, 2] <= 0, -5.0, 5.0)
        ev = find_best_split(x, y, SplitCriterion(kind="sse"), SearchStrategy(kind="bb", xi=0))
        assert ev.rule.coords == (2, 2)


class TestNodeValueAndGain:
    def test_sse_node_value_is_variance(self):
        y = np.array([0.0, 2.0, 4.0])
        x = np.zeros((3, 2, 2))
        assert node_criterion_value(x, y, SplitCriterion(kind="sse")) == pytest.approx(
            np.var(y), rel=1e-12
        )

    def test_gain_positive_for_separating_split(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1)
        y = np.array([1.0, 1.0, 10.0, 10.0])
        g = split_gain(x, y, SplitRule((0, 0), 2.0), SplitCriterion(kind="sse"))
        assert g == pytest.approx(np.var(y), rel=1e-12)

    def test_gain_zero_for_constant_response(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(8, 2, 2))
        y = np.full(8, 1.0)
        thr = float(np.sort(x[:, 0, 0])[3])
        assert split_gain(x, y, SplitRule((0, 0), thr), SplitCriterion(kind="sse")) <= 0.0


class TestCriterionValidation:
    def test_sse_with_rank_rejected(self):
        with pytest.raises(ValueError):
            SplitCriterion(kind="sse", split_rank=2)

    def test_lae_without_rank_rejected(self):
        with pytest.raises(ValueError):
            SplitCriterion(kind="lae")

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            SearchStrategy(kind="leverage", tau=0.0)

    def test_negative_xi(self):
        with pytest.raises(ValueError):
            SearchStrategy(kind="bb", xi=-1)


class TestInputAndRankBoundary:
    @pytest.mark.parametrize(
        "strategy",
        [SearchStrategy(), SearchStrategy(kind="leverage", tau=0.5), SearchStrategy(kind="bb", xi=1)],
        ids=["exhaustive", "leverage", "bb"],
    )
    @pytest.mark.parametrize("where", ["x", "y"])
    def test_non_finite_input_rejected(self, strategy, where):
        rng = np.random.default_rng(30)
        x, y = rng.uniform(size=(30, 3, 3)), rng.normal(size=30)
        if where == "x":
            x[4, 2, 1] = np.nan
        else:
            y[4] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            find_best_split(x, y, SplitCriterion(kind="sse"), strategy)

    @pytest.mark.parametrize(
        "kind, decomp, rank",
        [("lae", "cp", (2, 2, 2)), ("lae", "cp", 0), ("lae", "tucker", (2, 0, 2)), ("lre", "cp", 0)],
    )
    def test_bad_split_rank_rejected_when_criterion_is_built(self, kind, decomp, rank):
        with pytest.raises(ValueError, match="split rank"):
            SplitCriterion(kind=kind, decomp=decomp, split_rank=rank)

    def test_lre_tuple_rank_left_to_the_leaf_family(self):
        # The lre family follows the leaf spec, so the criterion alone accepts a tuple.
        assert SplitCriterion(kind="lre", split_rank=(2, 2)).split_rank == (2, 2)


# --- the presorted sse scan against a per-node sort ----------------------


def reference_sse_coord(x, y, coords, min_child):
    """One coordinate scored the plain way: a fresh stable sort, a prefix
    scan for the threshold, and an exact rescore of that threshold."""
    col = x[(slice(None),) + tuple(coords)]
    n = col.size
    order = np.argsort(col, kind="stable")
    v, ys = col[order], y[order]
    cum, cumsq = np.cumsum(ys), np.cumsum(ys * ys)
    k = np.arange(1, n)
    ok = (v[:-1] < v[1:]) & (k >= min_child) & (n - k >= min_child)
    if not ok.any():
        return None
    var_l = np.maximum(cumsq[:-1] / k - (cum[:-1] / k) ** 2, 0.0)
    var_r = np.maximum((cumsq[-1] - cumsq[:-1]) / (n - k) - ((cum[-1] - cum[:-1]) / (n - k)) ** 2, 0.0)
    j = int(np.argmin(np.where(ok, var_l + var_r, np.inf)))
    mask = col <= v[j]
    loss = float(np.var(y[mask])) + float(np.var(y[~mask]))
    return SplitEvaluation(SplitRule(tuple(coords), float(v[j])), loss, int(k[j]), int(n - k[j]))


def reference_sse_search(x, y, min_child):
    """Every coordinate sorted and rescored, best under the library's tie-break."""
    best = None
    for coords in np.ndindex(*x.shape[1:]):
        cand = reference_sse_coord(x, y, coords, min_child)
        if cand is not None and (best is None or (cand.loss, cand.rule.coords, cand.rule.threshold)
                                 < (best.loss, best.rule.coords, best.rule.threshold)):
            best = cand
    return best


def sse_instance(kind, seed, n=40):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 3, 2))
    y = rng.normal(size=n)
    if kind == "tied":
        x = np.round(x * 3) / 3
        y = np.round(y)
    elif kind == "constant_column":
        x[:, 1, 0] = 0.25
    elif kind == "offset":
        y = y + 1e6
    elif kind == "duplicate_columns":
        # Coordinates that induce the same partitions tie exactly.  The
        # mirrored copy sorts its rows the other way, so its prefix scan
        # rounds differently; the branch-and-bound walk visits it first.
        x[:, 1, 0] = -x[:, 0, 0]
        x[:, 2, 1] = 2 * x[:, 0, 1]
        y = y + 1e3
    elif kind == "signed_zeros":
        # -0.0 and 0.0 tie, in rows of both signs
        x[:, 0, 1] = np.array([-0.0, 0.0, 0.5])[rng.integers(0, 3, n)]
    elif kind == "window_ties":
        # Each column has two low rows: every cut but n_left = 2 ties.
        x = np.ones_like(x)
        for coords in np.ndindex(3, 2):
            x[(rng.choice(n, 2, replace=False),) + coords] = 0.0
    return x, y


class TestPresortedSse:
    KINDS = ["plain", "tied", "constant_column", "offset", "duplicate_columns", "signed_zeros",
             "window_ties"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("min_child", [0, 1, 2, 3, 4, 20, 21])
    @pytest.mark.parametrize(
        "strategy", [SearchStrategy(), SearchStrategy(kind="bb", xi=0)], ids=["exhaustive", "bb"])
    def test_matches_per_node_sort_and_full_rescore(self, kind, min_child, strategy):
        for seed in range(6):
            x, y = sse_instance(kind, seed)
            expected = reference_sse_search(x, y, min_child)
            got = find_best_split(x, y, SplitCriterion(kind="sse"), strategy, min_child=min_child)
            assert got == expected
            if got is not None:  # == does not tell -0.0 from 0.0
                assert repr(got.rule.threshold) == repr(expected.rule.threshold)
            # 2 * min_child > 40 leaves no cut; past min_child 2 every window_ties cut ties
            if min_child > 20 or (kind == "window_ties" and min_child > 2):
                assert got is None

    def test_cache_holds_stable_orders_and_changes_no_result(self):
        x, y = sse_instance("tied", 3)
        orders = {}
        first = find_best_split(x, y, SplitCriterion(kind="sse"), SearchStrategy(), _orders=orders)
        again = find_best_split(x, y + 1.0, SplitCriterion(kind="sse"), SearchStrategy(), _orders=orders)
        assert first == reference_sse_search(x, y, 1)
        assert again == reference_sse_search(x, y + 1.0, 1)
        assert sorted(orders) == sorted(np.ndindex(3, 2))
        for coords, order in orders.items():
            assert order.dtype == np.int32
            assert np.array_equal(order, np.argsort(x[(slice(None),) + coords], kind="stable"))

    @pytest.mark.parametrize("kind", ["plain", "tied"])
    def test_child_orders_are_stable_child_argsorts(self, kind):
        x, _ = sse_instance(kind, 4)
        orders = {c: np.argsort(x[(slice(None),) + c], kind="stable") for c in np.ndindex(3, 2)}
        go_left = x[:, 0, 1] <= np.median(x[:, 0, 1])
        for rows in (go_left, ~go_left):
            child = _child_orders(orders, rows)
            assert sorted(child) == sorted(orders)
            for coords, order in child.items():
                assert np.array_equal(order, np.argsort(x[rows][(slice(None),) + coords], kind="stable"))

    @pytest.mark.parametrize("kind", ["mean_value", "lae"])
    def test_other_criteria_leave_the_cache_empty(self, kind):
        x, y = sse_instance("plain", 5, n=12)
        criterion = (SplitCriterion(kind="sse", value_mode="mean") if kind == "mean_value"
                     else SplitCriterion(kind="lae", split_rank=1, als=FAST_ALS))
        orders = {}
        find_best_split(x, y, criterion, SearchStrategy(), _orders=orders)
        assert orders == {}


def strategy_order(x, strategy):
    """The coordinates a search under ``strategy`` scans, in the library's order."""
    if strategy.kind == "exhaustive":
        return list(np.ndindex(*x.shape[1:]))
    if strategy.kind == "leverage":
        return splitting._leverage_order(x, strategy)
    return splitting._bb_order(x.shape[1:], int(strategy.xi))


def reference_sse_order_search(x, y, criterion, strategy, leaf, min_child, orders=None):
    """Stands in for ``splitting._search``: every coordinate in the strategy's
    order scored by :func:`reference_sse_coord`, with no cache and no skips,
    best under the library's tie-break."""
    assert criterion.kind == "sse" and criterion.value_mode == "observed"
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    best = None
    for coords in strategy_order(x, strategy):
        cand = reference_sse_coord(x, y, coords, min_child)
        if cand is not None and splitting._better(cand, best):
            best = cand
    return best


def prune_fn_instance(kind, seed, n=160):
    x, y = generate(SyntheticSpec(generator="prune_fn", n=n, seed=seed))
    if kind == "tied":
        x = np.round(x * 4) / 4
    elif kind == "constant_column":
        x[:, 1, 2, 3] = 0.5
    elif kind == "offset":
        y = y + 1e6
    elif kind == "signed_zeros":
        x[:, 0, 0, 0] = np.where(x[:, 0, 0, 0] < 0.3, -0.0, np.where(x[:, 0, 0, 0] < 0.6, 0.0, 1.0))
    return x, y


class TestPresortedModels:
    """Whole fits with the shared, inherited cache give the bytes of a per-node sort."""

    FITS = {
        "grow": lambda x, y: grow(x, y, GrowConfig(max_depth=4, min_samples_leaf=1)),
        "boosting": lambda x, y: fit_boosting(x, y, BoostingConfig(
            n_estimators=4, tree=GrowConfig(max_depth=3))),
        "boosting_resampled": lambda x, y: fit_boosting(x, y, BoostingConfig(
            n_estimators=4, p_resample=0.5, tree=GrowConfig(max_depth=3), seed=2)),
        "forest": lambda x, y: fit_forest(x, y, ForestConfig(n_trees=3, tree=GrowConfig(max_depth=4))),
        "forest_no_bootstrap": lambda x, y: fit_forest(x, y, ForestConfig(
            n_trees=3, bootstrap=False, tree=GrowConfig(max_depth=4))),
    }

    @pytest.mark.parametrize("kind", ["plain", "tied", "constant_column", "offset", "signed_zeros"])
    @pytest.mark.parametrize("fit", list(FITS))
    def test_model_bytes_match_per_node_sort(self, fit, kind, monkeypatch):
        x, y = prune_fn_instance(kind, seed=7)
        got = dumps(self.FITS[fit](x, y))
        monkeypatch.setattr(splitting, "_search", reference_sse_order_search)
        assert got == dumps(self.FITS[fit](x, y))

    def test_boosting_sorts_each_coordinate_once(self, monkeypatch):
        x, y = prune_fn_instance("plain", seed=8, n=200)
        sorted_columns = []
        argsort = np.argsort

        def counting_argsort(a, *args, **kwargs):
            sorted_columns.append(np.asarray(a).tobytes())
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(splitting.np, "argsort", counting_argsort)
        model = fit_boosting(x, y, BoostingConfig(n_estimators=10, tree=GrowConfig(max_depth=3)))
        assert sum(t.n_leaves > 1 for t in model.trees) == 10
        columns = {x[(slice(None),) + c].tobytes() for c in np.ndindex(4, 4, 4)}
        assert len(sorted_columns) == len(set(sorted_columns)) == 64
        assert set(sorted_columns) == columns


class TestRankKeys:
    """Trees grown on row resamples sort dense integer ranks of the full input."""

    @staticmethod
    def tied_stack(n, seed=0):
        """Columns with ties between distinct rows, -0.0 beside 0.0, and a constant column."""
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(size=(n, 2, 2)) * 3) / 3
        x[:, 0, 1] = np.array([-0.0, 0.0, -1.5, 2.0])[rng.integers(0, 4, n)]
        x[:, 1, 1] = 0.25
        return x

    @pytest.mark.parametrize("n, dtype", [(40, np.uint16), (2**16, np.uint16), (2**16 + 1, np.uint32)])
    def test_rank_dtype_and_sorts_match_float_sorts(self, n, dtype):
        x = self.tied_stack(n)
        ranks = splitting._dense_ranks(x)
        assert ranks.dtype == dtype and ranks.shape == (2, 2, n)
        rng = np.random.default_rng(1)
        rows = rng.integers(0, n, size=n)  # a bootstrap draw: rows repeat
        assert np.unique(rows).size < n
        orders = splitting._RankedOrders(ranks, rows)
        for coords in np.ndindex(2, 2):
            col = x[(rows,) + coords]
            order = splitting._sorted_order(col, coords, orders)
            assert np.array_equal(order, np.argsort(col, kind="stable"))
            assert orders[coords] is order

    def test_equal_values_share_a_rank(self):
        x = self.tied_stack(200)
        ranks = splitting._dense_ranks(x)
        for coords in np.ndindex(2, 2):
            col = x[(slice(None),) + coords]
            assert np.array_equal(ranks[coords], np.searchsorted(np.unique(col), col))
        assert set(ranks[0, 1].tolist()) == {0, 1, 2}  # -1.5, then -0.0 with 0.0, then 2.0
        assert not ranks[1, 1].any()

    def test_child_caches_carry_their_rows(self):
        x = self.tied_stack(60, seed=2)
        rows = np.random.default_rng(3).integers(0, 60, size=60)
        orders = splitting._RankedOrders(splitting._dense_ranks(x), rows)
        xs = x[rows]
        splitting._sorted_order(xs[:, 0, 0], (0, 0), orders)
        go_left = xs[:, 1, 0] <= 0.0
        for side in (go_left, ~go_left):
            child = _child_orders(orders, side)
            assert isinstance(child, splitting._RankedOrders) and child.ranks is orders.ranks
            assert np.array_equal(child.rows, rows[side]) and list(child) == [(0, 0)]
            for coords in np.ndindex(2, 2):  # a hit, then misses sorted from ranks
                col = xs[side][(slice(None),) + coords]
                assert np.array_equal(splitting._sorted_order(col, coords, child),
                                      np.argsort(col, kind="stable"))

    def test_bootstrap_trees_sort_uint16_rank_keys(self, monkeypatch):
        x, y = prune_fn_instance("tied", seed=5, n=200)
        keys = []
        argsort = np.argsort

        def recording_argsort(a, *args, **kwargs):
            keys.append(np.asarray(a).dtype)
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(splitting.np, "argsort", recording_argsort)
        fit_forest(x, y, ForestConfig(n_trees=3, tau=1.0, tree=GrowConfig(max_depth=3)))
        fit_boosting(x, y, BoostingConfig(n_estimators=3, p_resample=0.5, tree=GrowConfig(max_depth=3)))
        column_sorts = [k for k in keys if k != np.float64]  # not the leverage sample keys
        assert column_sorts and set(column_sorts) == {np.dtype(np.uint16)}


# --- one bound-ordered scorer for every criterion ---------------------------


def reference_rule_search(x, y, criterion, strategy, leaf, min_child, orders=None):
    """Stands in for ``splitting._search``: every admissible rule of every
    coordinate in the strategy's order scored by ``_children_loss``, with no
    bound, no skip and no cache, best under the library's tie-break."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    spec = splitting._lre_spec(criterion, leaf)
    n = x.shape[0]
    best = None
    for coords in strategy_order(x, strategy):
        col = x[(slice(None),) + tuple(coords)]
        thresholds = sorted(set(col.tolist())) if criterion.value_mode == "observed" else [col.mean()]
        for thr in thresholds:
            mask = col <= thr
            nl = int(mask.sum())
            if min(nl, n - nl) < max(min_child, 1):
                continue
            loss = splitting._children_loss(x, y, mask, criterion, spec)
            cand = SplitEvaluation(SplitRule(tuple(coords), float(thr)), loss, nl, n - nl)
            if splitting._better(cand, best):
                best = cand
    return best


def step_instance(seed, n=80):
    """Steps on three coordinates, so mean-value ``sse`` trees grow several levels."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 3, 2))
    y = 4.0 * (x[:, 0, 0] > 0.5) + 2.0 * (x[:, 2, 1] > 0.5) + (x[:, 1, 0] > 0.5)
    return x, y + rng.normal(0.0, 0.1, n)


class TestOneScorer:
    """``lae`` and mean-value ``sse`` fits give the bytes of a plain per-rule search."""

    LAE_CP = SplitCriterion(kind="lae", split_rank=1, als=FAST_ALS)
    TREES = {
        "lae-cp-observed": GrowConfig(max_depth=2, min_samples_leaf=3, criterion=LAE_CP),
        "lae-tucker-mean": GrowConfig(max_depth=3, min_samples_leaf=2, criterion=SplitCriterion(
            kind="lae", split_rank=(2, 1, 1), decomp="tucker", value_mode="mean", als=FAST_ALS)),
        "lae-bb-xi0": GrowConfig(max_depth=2, min_samples_leaf=3, criterion=LAE_CP,
                                 strategy=SearchStrategy(kind="bb", xi=0)),
        "sse-mean-exhaustive": GrowConfig(max_depth=4, min_samples_leaf=2,
                                          criterion=SplitCriterion(value_mode="mean")),
        "sse-mean-leverage": GrowConfig(max_depth=4, min_samples_leaf=2,
                                        criterion=SplitCriterion(value_mode="mean"),
                                        strategy=SearchStrategy(kind="leverage", tau=0.5, seed=1)),
    }

    @pytest.mark.parametrize("name", list(TREES))
    def test_model_bytes_match_plain_rule_search(self, name, monkeypatch):
        config = self.TREES[name]
        if config.criterion.kind == "lae":
            x, y = sse_instance("plain", 9, n=24)
        else:
            x, y = step_instance(9)
        model = grow(x, y, config)
        assert model.n_leaves > 1
        monkeypatch.setattr(splitting, "_search", reference_rule_search)
        assert dumps(model) == dumps(grow(x, y, config))

    CRITERIA = {
        "sse": SplitCriterion(),
        "sse-mean": SplitCriterion(value_mode="mean"),
        "lae": LAE_CP,
        "lre": SplitCriterion(kind="lre", split_rank=1, als=FAST_ALS),
    }
    STRATEGIES = {
        "exhaustive": SearchStrategy(),
        "leverage": SearchStrategy(kind="leverage", tau=0.5, seed=2),
        "bb-xi0": SearchStrategy(kind="bb", xi=0),
        "bb-xi1": SearchStrategy(kind="bb", xi=1),
    }

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    @pytest.mark.parametrize("criterion", list(CRITERIA))
    def test_eval_coord_sees_each_scanned_coordinate_once(self, criterion, strategy, monkeypatch):
        # Tracing counts scanned coordinates by wrapping ``_eval_coord(x, y, coords, ...)``.
        x, y = sse_instance("constant_column", 2, n=10)
        calls = []
        real = splitting._eval_coord

        def recording(x_, y_, coords, *rest):
            calls.append((x_, y_, coords))
            return real(x_, y_, coords, *rest)

        monkeypatch.setattr(splitting, "_eval_coord", recording)
        strat = self.STRATEGIES[strategy]
        assert find_best_split(x, y, self.CRITERIA[criterion], strat, min_child=2) is not None
        assert [c for _, _, c in calls] == [tuple(c) for c in strategy_order(x, strat)]
        for x_, y_, _ in calls:
            assert np.array_equal(x_, x) and np.array_equal(y_, y)

    @pytest.mark.parametrize("criterion", list(CRITERIA))
    def test_no_rule_leaves_a_child_empty_even_at_min_child_zero(self, criterion):
        # A constant first coordinate: its mean threshold would send every row left.
        x, y = sse_instance("plain", 3, n=12)
        x[:, 0, 0] = 0.5
        best = find_best_split(x, y, self.CRITERIA[criterion], SearchStrategy(), min_child=0)
        assert best.left_count > 0 and best.right_count > 0 and math.isfinite(best.loss)


class TestOneEntry:
    """``find_best_split``, ``evaluate_split``, ``split_gain`` and ``node_criterion_value`` share one contract."""

    CRITERIA = {
        "sse": (SSE, None),
        "lae-cp": (SplitCriterion(kind="lae", split_rank=2, als=FAST_ALS), None),
        "lae-tucker": (SplitCriterion(kind="lae", split_rank=(2, 2, 2), decomp="tucker",
                                      als=FAST_ALS), None),
        "lre": (SplitCriterion(kind="lre", split_rank=1, als=FAST_ALS),
                LeafModelSpec(kind="cp", rank=1, als=FAST_ALS)),
    }
    ENTRY_POINTS = {
        "find_best_split": lambda x, y, rule, c, leaf: find_best_split(
            x, y, c, SearchStrategy(), leaf),
        "find_best_split-leverage": lambda x, y, rule, c, leaf: find_best_split(
            x, y, c, SearchStrategy(kind="leverage", tau=0.5, seed=3), leaf, min_child=2),
        "find_best_split-bb": lambda x, y, rule, c, leaf: find_best_split(
            x, y, c, SearchStrategy(kind="bb", xi=1), leaf),
        "evaluate_split": lambda x, y, rule, c, leaf: evaluate_split(x, y, rule, c, leaf),
        "split_gain": lambda x, y, rule, c, leaf: split_gain(x, y, rule, c, leaf),
        "node_criterion_value": lambda x, y, rule, c, leaf: node_criterion_value(x, y, c, leaf),
    }
    # Spelled by prefix, so that a search of the sources for an old name finds no caller.
    REMOVED = [prefix + suffix for prefix, suffixes in (
        ("find_best_split_", ("exhaustive", "leverage", "bb")),
        ("evaluate_", ("sse", "lae", "lre")),
        ("ensemble_", ("predict",)),
    ) for suffix in suffixes]

    @staticmethod
    def instance(value_mode, seed=21):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(12, 3, 2))
        y = x[:, 1, 0] * 2.0 + 0.1 * rng.normal(size=12)
        thresholds = candidate_thresholds(x, (1, 0), value_mode)
        return x, y, SplitRule((1, 0), float(thresholds[thresholds.size // 2]))

    @pytest.mark.parametrize("value_mode", ["observed", "mean"])
    @pytest.mark.parametrize("name", list(CRITERIA))
    def test_node_value_minus_split_loss_is_the_gain(self, name, value_mode):
        crit, leaf = self.CRITERIA[name]
        crit = replace(crit, value_mode=value_mode)
        x, y, rule = self.instance(value_mode)
        loss = evaluate_split(x, y, rule, crit, leaf)
        assert math.isfinite(loss)
        assert node_criterion_value(x, y, crit, leaf) - loss == split_gain(x, y, rule, crit, leaf)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("name", ["sse", "lre"])
    def test_responses_required_outside_lae(self, name, entry):
        crit, leaf = self.CRITERIA[name]
        x, _, rule = self.instance("observed")
        with pytest.raises(ValueError, match="only 'lae' takes y=None"):
            self.ENTRY_POINTS[entry](x, None, rule, crit, leaf)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("name", ["lae-cp", "lae-tucker"])
    def test_lae_without_responses_matches_any_responses(self, name, entry):
        crit, leaf = self.CRITERIA[name]
        x, y, rule = self.instance("observed")
        call = self.ENTRY_POINTS[entry]
        assert call(x, None, rule, crit, leaf) == call(x, y, rule, crit, leaf)

    def test_removed_aliases_are_gone(self):
        import tensortree
        from tensortree import ensemble

        for module in (tensortree, splitting, ensemble):
            assert [n for n in self.REMOVED if hasattr(module, n)] == []
        assert tensortree.evaluate_split is evaluate_split
        assert tensortree.find_best_split is find_best_split
