"""The least-squares lower bound that lets ``lre`` search skip candidate fits.

The bound must never exceed a candidate's real loss (beyond the margin),
and skipping candidates by it must leave every search's result exactly
as an unbounded enumeration finds it.
"""

import numpy as np
import pytest

from tensortree import splitting
from tensortree.data import SyntheticSpec, generate
from tensortree.decomposition import AlsConfig
from tensortree.leaf_models import LeafModelSpec, min_viable_samples
from tensortree.splitting import (
    BOUND_MARGIN,
    SearchStrategy,
    SplitCriterion,
    SplitRule,
    _affine_design,
    _lre_bound,
    _lre_spec,
    evaluate_lre,
    find_best_split_bb,
    find_best_split_exhaustive,
    find_best_split_leverage,
)

from test_splitting import enumerate_best

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
            loss = evaluate_lre(x, y, SplitRule(coords, float(thr)), criterion, leaf)
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
        find_best_split_exhaustive(x, y, criterion, leaf),
        find_best_split_leverage(x, y, criterion, SearchStrategy(kind="leverage", tau=1.0), leaf),
        find_best_split_bb(x, y, criterion, SearchStrategy(kind="bb", xi=0), leaf),
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
    best = find_best_split_exhaustive(x, y, criterion, leaf, min_child=5)
    assert best is not None
    candidates = 0
    for coords in np.ndindex(*x.shape[1:]):
        col = x[(slice(None),) + coords]
        for thr in np.unique(col):
            nl = int((col <= thr).sum())
            candidates += nl >= 5 and x.shape[0] - nl >= 5
    # without the bound every candidate fits both children
    assert 0 < len(calls) < candidates
