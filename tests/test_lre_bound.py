"""The least-squares lower bound that lets ``lre`` search skip candidate fits.

The bound must never exceed a candidate's real loss (beyond the margin),
and skipping candidates by it must leave every search's result exactly
as an unbounded enumeration finds it.  The search takes each child's
bound from running Gram sums, which must never exceed the least-squares
residual of the child's rows by more than the margin, and scores rules
in ascending-bound order, which must give the rules, losses and model
bytes of the lazy per-coordinate loop it replaced.
"""

import numpy as np
import pytest

from tensortree import splitting
from tensortree.data import SyntheticSpec, generate
from tensortree.decomposition import AlsConfig
from tensortree.leaf_models import LeafModelSpec, min_viable_samples
from tensortree.serialize import dumps
from tensortree.splitting import (
    BOUND_MARGIN,
    SearchStrategy,
    SplitCriterion,
    SplitRule,
    _affine_design,
    _lre_bound,
    _lre_spec,
    evaluate_split,
    find_best_split,
)
from tensortree.tree import GrowConfig, grow

from test_splitting import enumerate_best, reference_rule_search

ALS = AlsConfig(max_iterations=5, rel_tolerance=1e-7, seed=0)

# (criterion, leaf) pairs covering both families, with and without an intercept.
SPECS = {
    "cp": (SplitCriterion(kind="lre", split_rank=2, als=ALS), None),
    "cp-no-intercept": (
        SplitCriterion(kind="lre", split_rank=2, als=ALS),
        LeafModelSpec(kind="cp", rank=1, intercept=False),
    ),
    "tucker": (SplitCriterion(kind="lre", split_rank=2, decomp="tucker", als=ALS), None),
    "tucker-no-intercept": (
        SplitCriterion(kind="lre", split_rank=2, als=ALS),
        LeafModelSpec(kind="tucker", rank=2, intercept=False),
    ),
}


def fig5(n, seed):
    return generate(SyntheticSpec(generator="fig5_interaction", n=n, noise_sigma=0.1, seed=seed))


def table2(n, seed):
    x, y = generate(SyntheticSpec(generator="table2_linear", n=n, noise_scale=0.1, seed=seed))
    return x, y[:, 0]


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("dataset", [fig5, table2], ids=["fig5_interaction", "table2_linear"])
def test_bound_never_exceeds_loss(dataset, name):
    criterion, leaf = SPECS[name]
    x, y = dataset(40, 1)
    n, features = x.shape[0], x[0].size
    spec = _lre_spec(criterion, leaf)
    design = _affine_design(x)
    margin = BOUND_MARGIN * float(y @ y)
    solved = fell_back = 0
    for coords in [(0, 0), (1, 2), (2, 3)]:
        col = x[(slice(None),) + coords]
        for thr in np.unique(col)[:-1]:
            mask = col <= thr
            bound = _lre_bound(design, y, mask)
            loss = evaluate_split(x, y, SplitRule(coords, float(thr)), criterion, leaf)
            assert bound <= loss + margin
            sizes = (int(mask.sum()), n - int(mask.sum()))
            solved += max(sizes) > features + 1
            fell_back += min(sizes) < min_viable_samples(spec, x.shape[1:])
    # the check is not vacuous: some children were solved, some fell back to the mean
    assert solved > 0 and fell_back > 0


def instance(kind, seed, n=60):
    """n=60 rows on (3, 3) inputs, so most children exceed features + 1."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 3, 3))
    noise = rng.normal(0.0, 0.3, n)
    if kind == "step":
        return x, np.where(x[:, 1, 2] > 0.1, 2.0, -1.0) + 0.5 * x[:, 0, 0] + noise
    if kind == "linear":
        return x, x[:, 0, 0] + 0.5 * x[:, 1, 1] + noise
    return x, np.where(x[:, 1, 2] > 0.1, x[:, 0, 0], 0.0) + noise


# Linear and interaction responses make the bounds of many candidates
# close to their losses, so a skip rule that is too eager changes the result.
@pytest.mark.parametrize("kind,seed", [("linear", 0), ("linear", 2), ("interaction", 0)])
def test_bounded_searches_match_unbounded_enumeration(kind, seed):
    x, y = instance(kind, seed)
    criterion, leaf = SPECS["cp"]
    want_key, want_rule, want_left, want_right = enumerate_best(x, y, criterion, leaf)
    searches = [
        find_best_split(x, y, criterion, SearchStrategy(), leaf),
        find_best_split(x, y, criterion, SearchStrategy(kind="leverage", tau=1.0), leaf),
        find_best_split(x, y, criterion, SearchStrategy(kind="bb", xi=0), leaf),
    ]
    for got in searches:
        assert got.rule == want_rule
        assert got.loss == want_key[0]
        assert (got.left_count, got.right_count) == (want_left, want_right)


def test_bound_skips_fits(monkeypatch):
    x, y = instance("step", 2)
    criterion, leaf = SPECS["cp"]
    calls = []
    real_fit = splitting.fit_leaf

    def counting_fit(*args):
        calls.append(1)
        return real_fit(*args)

    monkeypatch.setattr(splitting, "fit_leaf", counting_fit)
    best = find_best_split(x, y, criterion, SearchStrategy(), leaf, min_child=5)
    assert best is not None
    candidates = 0
    for coords in np.ndindex(*x.shape[1:]):
        col = x[(slice(None),) + coords]
        for thr in np.unique(col):
            nl = int((col <= thr).sum())
            candidates += nl >= 5 and x.shape[0] - nl >= 5
    # without the bound every candidate fits both children
    assert 0 < len(calls) < candidates


def test_zero_bound_rules_fit_the_larger_child_first(monkeypatch):
    # 25 rows on (5, 4) inputs: every child of 10-15 rows has at most
    # features + 1 = 21, so every bound is 0 and only child sizes order the fits.
    x, y = fig5(25, 0)
    criterion, leaf = SPECS["cp"]
    rows = np.hstack([_affine_design(x), y[:, None]])
    margin = splitting._margin(x.shape[0], float(y @ y))
    pool = [rule for coords in np.ndindex(*x.shape[1:])
            for rule in splitting._eval_coord(x, y, coords, criterion, 10, splitting._RankTable(x), margin, rows)]
    assert pool and all(rule[0] == 0.0 for rule in pool)
    calls = []
    real_fit = splitting.fit_leaf
    monkeypatch.setattr(splitting, "fit_leaf", lambda *args: calls.append(1) or real_fit(*args))
    best = find_best_split(x, y, criterion, SearchStrategy(), leaf, min_child=10)
    # fitting the left child first on every bound tie made 172 fits here
    assert len(calls) < 172
    monkeypatch.undo()
    want = reference_rule_search(x, y, criterion, SearchStrategy(), leaf, 10)
    assert (best.rule, best.loss) == (want.rule, want.loss)
    lae = SplitCriterion(kind="lae", split_rank=2, als=ALS)
    want = reference_rule_search(x, y, lae, SearchStrategy(), None, 10)
    got = find_best_split(x, y, lae, SearchStrategy(), min_child=10)
    assert (got.rule, got.loss) == (want.rule, want.loss)


# --- the search against the lazy per-coordinate loop it replaced -----------


def best_loss(best):
    return np.inf if best is None else best.loss


def reference_lre_search(x, y, criterion, strategy, leaf, min_child, ranks=None):
    """Stands in for ``splitting._search`` under ``lre``: coordinates in the strategy's
    order, each scanned threshold by threshold, a rule fitted unless its summed
    least-squares bound passes the best loss so far (or the coordinate's own
    best) by more than the margin."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if strategy.kind == "exhaustive":
        order = np.ndindex(*x.shape[1:])
    elif strategy.kind == "leverage":
        order = splitting._leverage_order(x, strategy)
    else:
        order = splitting._bb_order(x.shape[1:], int(strategy.xi))
    spec = _lre_spec(criterion, leaf)
    design = _affine_design(x)
    margin = BOUND_MARGIN * float(np.dot(y, y))
    n = x.shape[0]
    best = None
    for coords in order:
        col = x[(slice(None),) + tuple(coords)]
        coord_best = None
        for thr in splitting._thresholds(col, criterion.value_mode):
            rule = SplitRule(tuple(coords), float(thr))
            mask = col <= rule.threshold
            nl = int(mask.sum())
            if nl < min_child or n - nl < min_child:
                continue
            limit = min(best_loss(best), best_loss(coord_best)) + margin
            if limit < np.inf and _lre_bound(design, y, mask) > limit:
                continue
            loss = splitting._children_loss(x, y, mask, criterion, spec)
            if coord_best is None or loss < coord_best.loss:
                coord_best = splitting.SplitEvaluation(rule, loss, nl, n - nl)
        if coord_best is not None and splitting._better(coord_best, best):
            best = coord_best
    return best


def with_reference_search(monkeypatch):
    real = splitting._search

    def search(x, y, criterion, strategy, leaf, min_child, ranks=None):
        if criterion.kind != "lre":
            return real(x, y, criterion, strategy, leaf, min_child, ranks)
        return reference_lre_search(x, y, criterion, strategy, leaf, min_child, ranks)

    monkeypatch.setattr(splitting, "_search", search)


STRATEGIES = {
    "exhaustive": SearchStrategy(),
    "leverage-tau1": SearchStrategy(kind="leverage", tau=1.0),
    "leverage-tau0.5": SearchStrategy(kind="leverage", tau=0.5, seed=3),
    "bb-xi0": SearchStrategy(kind="bb", xi=0),
    "bb-xi1": SearchStrategy(kind="bb", xi=1),
}


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("value_mode", ["observed", "mean"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_search_matches_lazy_reference(name, value_mode, strategy):
    criterion, leaf = SPECS[name]
    criterion = SplitCriterion(kind="lre", split_rank=criterion.split_rank, decomp=criterion.decomp,
                               value_mode=value_mode, als=criterion.als)
    x, y = instance("interaction", 1, n=40)
    for min_child in (1, 6):
        want = reference_lre_search(x, y, criterion, STRATEGIES[strategy], leaf, min_child)
        got = splitting.find_best_split(x, y, criterion, STRATEGIES[strategy], leaf,
                                        min_child=min_child)
        assert want is not None and got == want


LRE_TREE = GrowConfig(max_depth=2, min_samples_leaf=10, criterion=SplitCriterion(
    kind="lre", split_rank=2, decomp="cp", als=AlsConfig(max_iterations=10)))

TREES = {
    "lre_tree": (LRE_TREE, lambda: fig5(50, 41)),
    "lre_tree-seed2": (LRE_TREE, lambda: fig5(50, 2)),
    "tucker-mean-no-intercept": (
        GrowConfig(max_depth=2, min_samples_leaf=5, criterion=SplitCriterion(
            kind="lre", split_rank=2, value_mode="mean", als=ALS),
            leaf=LeafModelSpec(kind="tucker", rank=2, intercept=False)),
        lambda: fig5(40, 3)),
    "cp-leverage": (
        GrowConfig(max_depth=2, min_samples_leaf=5, criterion=SplitCriterion(
            kind="lre", split_rank=1, als=ALS),
            strategy=SearchStrategy(kind="leverage", tau=0.5, seed=1),
            leaf=LeafModelSpec(kind="cp", rank=1, intercept=False)),
        lambda: table2(40, 4)),
    "tucker-bb": (
        GrowConfig(max_depth=2, min_samples_leaf=4, criterion=SplitCriterion(
            kind="lre", split_rank=2, decomp="tucker", als=ALS),
            strategy=SearchStrategy(kind="bb", xi=0)),
        lambda: instance("step", 5, n=50)),
}


@pytest.mark.parametrize("name", sorted(TREES))
def test_grown_trees_match_lazy_reference(name, monkeypatch):
    config, data = TREES[name]
    x, y = data()
    got = dumps(grow(x, y, config))
    with_reference_search(monkeypatch)
    assert got == dumps(grow(x, y, config))


def test_exact_tie_goes_to_the_smaller_key_whatever_the_bounds(monkeypatch):
    x, y = instance("step", 3, n=40)
    criterion, leaf = SPECS["cp"]
    sum_sq = float(y @ y)
    rows = np.hstack([_affine_design(x), y[:, None]])
    margin = splitting._margin(x.shape[0], sum_sq)
    pool = []
    for coords in np.ndindex(*x.shape[1:]):
        pool += splitting._eval_coord(x, y, coords, criterion, 5, splitting._RankTable(x), margin, rows)
    # a rule with the smaller key and the larger bound, and one with the larger key
    bound, keys = {c[1:3]: c[0] for c in pool}, sorted(c[1:3] for c in pool)
    small = next(k for k in keys if any(bound[other] < bound[k] for other in keys if other > k))
    large = next(other for other in keys if other > small and bound[other] < bound[small])

    def children(coords, thr):
        mask = x[(slice(None),) + coords] <= thr
        return {y[mask].tobytes(), y[~mask].tobytes()}

    tied = children(*small) | children(*large)
    # the two rules induce partitions no smaller rule induces
    assert min(k for k in keys if children(*k) <= tied) == small
    # every child of the two rules scores sum(y**2), any other child twice that
    monkeypatch.setattr(splitting, "_lre_term",
                        lambda xg, yg, s: sum_sq if yg.tobytes() in tied else 2 * sum_sq)
    best = find_best_split(x, y, criterion, SearchStrategy(), leaf, min_child=5)
    assert best.rule == SplitRule(*small) and best.loss == 2 * sum_sq


# --- the Gram-sum bound against the least-squares residual ------------------


def bound_cases():
    """(name, x, y) children sets on (2, 2) inputs: 5 design columns."""
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=(30, 2, 2))
    y = x[:, 0, 0] - 2 * x[:, 1, 1] + rng.normal(0, 0.1, 30)
    constant = x.copy()
    constant[:, 1, 0] = 0.25
    duplicated = np.concatenate([x[:8], x[:8], x[:8]])
    tied = np.round(x * 2) / 2
    return [("plain", x, y), ("constant_column", constant, y),
            ("duplicated_rows", duplicated, np.concatenate([y[:8]] * 3)),
            ("tied", tied, y), ("offset", x, y + 1e6)]


@pytest.mark.parametrize("name,x,y", bound_cases(), ids=[c[0] for c in bound_cases()])
def test_gram_bound_never_exceeds_lstsq_bound(name, x, y, monkeypatch):
    p = x[0].size + 1
    rows = np.hstack([_affine_design(x), y[:, None]])
    margin = BOUND_MARGIN * float(y @ y)
    fallbacks = []
    real = splitting._lstsq_residual
    monkeypatch.setattr(splitting, "_lstsq_residual", lambda d, t: fallbacks.append(1) or real(d, t))
    sizes = np.arange(p + 1, x.shape[0] + 1)  # p+1 ... p+5 rows and beyond
    for order in (np.arange(x.shape[0]), np.argsort(x[:, 0, 1], kind="stable")):
        got = splitting._child_bounds(rows[order], sizes, margin / 4)
        for size, bound in zip(sizes, got):
            d, t = rows[order][:size, :p], rows[order][:size, p]
            assert 0.0 <= bound <= real(d, t) + margin
    if name in ("constant_column", "duplicated_rows"):
        # a singular Gram is never trusted
        assert len(fallbacks) >= sizes.size
    elif name == "plain":
        assert len(fallbacks) < sizes.size


def test_gram_bounds_fall_back_somewhere_in_a_search(monkeypatch):
    x, y = bound_cases()[1][1:]
    calls = []
    real = splitting._lstsq_residual
    monkeypatch.setattr(splitting, "_lstsq_residual", lambda d, t: calls.append(1) or real(d, t))
    find_best_split(x, y, SPECS["cp"][0], SearchStrategy())
    assert calls


def test_small_children_keep_a_zero_bound():
    x, y = bound_cases()[0][1:]
    p = x[0].size + 1
    rows = np.hstack([_affine_design(x), y[:, None]])
    sizes = np.arange(1, x.shape[0] + 1)
    bounds = splitting._child_bounds(rows, sizes, np.inf)
    assert (bounds[sizes <= p] == 0).all() and (bounds[sizes > p] > 0).all()


@pytest.mark.parametrize("block", [1, 7, 22, 10**6])
def test_prefix_moments_blocks_sum_the_same(block, monkeypatch):
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(40, 4))
    counts = np.array([1, 3, 16, 17, 33, 40])
    monkeypatch.setattr(splitting, "_MOMENT_BLOCK", block * 16)
    got = np.concatenate([sums for _, sums in splitting._prefix_moments(rows, counts)])
    want = np.stack([rows[:k].T @ rows[:k] for k in counts])
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_candidates_carry_the_lstsq_bound_of_each_rule():
    x, y = instance("linear", 0)
    criterion, leaf = SPECS["cp"]
    design = _affine_design(x)
    sum_sq = float(y @ y)
    rows = np.hstack([design, y[:, None]])
    for coords in [(0, 0), (1, 2)]:
        cands = splitting._eval_coord(x, y, coords, criterion, 5, splitting._RankTable(x),
                                      splitting._margin(x.shape[0], sum_sq), rows)
        col = x[(slice(None),) + coords]
        assert [c[2] for c in cands] == [
            float(t) for t in np.unique(col) if 5 <= (col <= t).sum() <= x.shape[0] - 5]
        for bound, _, thr, nl, left, right in cands:
            mask = col <= thr
            assert nl == mask.sum() and bound == left + right
            assert abs(bound - _lre_bound(design, y, mask)) <= BOUND_MARGIN * sum_sq
