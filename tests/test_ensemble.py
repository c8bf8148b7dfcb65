"""Boosting and forest ensembles: update identities and determinism."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tensortree import ensemble, splitting
from tensortree._rng import derive_seed, make_rng
from tensortree.ensemble import (
    BoostedModel,
    BoostingConfig,
    ForestConfig,
    ForestModel,
    fit_boosting,
    fit_forest,
)
from tensortree.leaf_models import LeafModelSpec
from tensortree.serialize import dumps
from tensortree.splitting import SearchStrategy, SplitCriterion
from tensortree.tree import GrowConfig, PruneConfig, grow, prune


def step_data(n, seed, sigma=0.2):
    rng = make_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 3, 3))
    y = np.where(x[:, 0, 0] >= 0.5, 2.0, -1.0) + rng.normal(0, sigma, n)
    return x, y


def mean_tree(max_depth=2, min_samples_leaf=5):
    return GrowConfig(
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        criterion=SplitCriterion(kind="sse"),
        leaf=LeafModelSpec(kind="mean"),
    )


class TestBoosting:
    def test_single_stump_predicts_mean(self):
        rng = make_rng(1)
        x = rng.normal(size=(30, 2, 2))
        y = rng.normal(size=30)
        cfg = BoostingConfig(n_estimators=1, learning_rate=1.0, tree=mean_tree(max_depth=0))
        model = fit_boosting(x, y, cfg)
        assert np.allclose(model.predict(x), y.mean(), atol=1e-12)

    def test_training_mse_non_increasing(self):
        x, y = step_data(200, seed=2)
        cfg = BoostingConfig(n_estimators=10, learning_rate=0.1, tree=mean_tree())
        model = fit_boosting(x, y, cfg)
        assert len(model.train_mse) == 10
        assert np.all(np.diff(model.train_mse) <= 1e-10)

    def test_residual_update_identity(self):
        x, y = step_data(150, seed=3)
        cfg = BoostingConfig(n_estimators=5, learning_rate=0.3, tree=mean_tree())
        model = fit_boosting(x, y, cfg)
        current = np.full(y.size, model.base_value)
        for tree in model.trees:
            current = current + model.learning_rate * tree.predict(x)
        assert np.allclose(model.predict(x), current, atol=1e-12)
        assert np.mean((y - current) ** 2) == pytest.approx(model.train_mse[-1], rel=1e-12)

    def test_resampling_deterministic(self):
        x, y = step_data(120, seed=4)
        cfg = BoostingConfig(
            n_estimators=4, learning_rate=0.2, p_resample=0.8, tree=mean_tree(), seed=11
        )
        a = fit_boosting(x, y, cfg)
        b = fit_boosting(x, y, cfg)
        assert np.array_equal(a.predict(x), b.predict(x))

    def test_resampling_weights_survive_huge_residuals(self):
        x, y = step_data(60, seed=5)
        y = y * 1e3
        cfg = BoostingConfig(
            n_estimators=6, learning_rate=0.1, p_resample=0.5, tree=mean_tree(), seed=2
        )
        model = fit_boosting(x, y, cfg)
        assert np.all(np.isfinite(model.predict(x)))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_boosting(np.zeros((0, 2, 2)), np.zeros(0), BoostingConfig(tree=mean_tree()))


class TestForest:
    def test_single_tree_full_tau_no_bootstrap_matches_tree(self):
        x, y = step_data(100, seed=6)
        base = mean_tree(max_depth=2)
        fc = ForestConfig(n_trees=1, bootstrap=False, tau=1.0, tree=base, seed=0)
        forest = fit_forest(x, y, fc)
        single = grow(x, y, base)
        assert np.allclose(forest.predict(x), single.predict(x), atol=1e-12)

    def test_constant_response_predicts_constant(self):
        rng = make_rng(7)
        x = rng.normal(size=(50, 2, 2))
        y = np.full(50, 4.5)
        forest = fit_forest(x, y, ForestConfig(n_trees=5, tree=mean_tree(), seed=3))
        assert np.allclose(forest.predict(x), 4.5, atol=1e-12)

    def test_prediction_is_mean_of_trees(self):
        x, y = step_data(120, seed=8)
        forest = fit_forest(x, y, ForestConfig(n_trees=7, tree=mean_tree(), seed=4))
        manual = np.mean([t.predict(x) for t in forest.trees], axis=0)
        assert np.allclose(forest.predict(x), manual, atol=1e-12)

    def test_tree_order_invariance(self):
        x, y = step_data(120, seed=9)
        forest = fit_forest(x, y, ForestConfig(n_trees=6, tree=mean_tree(), seed=5))
        from tensortree.ensemble import ForestModel

        shuffled = ForestModel(list(reversed(forest.trees)))
        assert np.allclose(forest.predict(x), shuffled.predict(x), atol=1e-12)

    def test_determinism(self):
        x, y = step_data(90, seed=10)
        fc = ForestConfig(n_trees=4, tree=mean_tree(), seed=6)
        assert np.array_equal(fit_forest(x, y, fc).predict(x), fit_forest(x, y, fc).predict(x))


def assert_no_training_data(model):
    for t in model.trees:
        assert t._x is None and t._y is None
        assert all(leaf.indices is None for leaf in t.leaves())


class TestTrainingDataDropped:
    def test_boosting_trees_keep_no_training_data(self):
        x, y = step_data(80, seed=12)
        prune_cfg = PruneConfig(alpha=0.1)
        model = fit_boosting(x, y, BoostingConfig(n_estimators=1, learning_rate=0.5,
                                                  tree=mean_tree(), prune=prune_cfg))
        assert_no_training_data(model)
        f0 = y.mean()
        stage = prune(grow(x, y - f0, mean_tree()), prune_cfg)
        assert np.array_equal(model.predict(x), f0 + 0.5 * stage.predict(x))

    def test_forest_trees_keep_no_training_data(self):
        x, y = step_data(80, seed=13)
        base = mean_tree()
        forest = fit_forest(x, y, ForestConfig(n_trees=1, bootstrap=False, tau=1.0, tree=base))
        assert_no_training_data(forest)
        assert np.array_equal(forest.predict(x), grow(x, y, base).predict(x))


class TestEnsemblePredict:
    def test_no_trees_predicts_base_value(self):
        from tensortree.ensemble import BoostedModel

        model = BoostedModel(base_value=2.5, learning_rate=0.1, trees=[])
        assert np.array_equal(model.predict(np.zeros((4, 2, 2))), np.full(4, 2.5))

    def test_single_tree_unit_rate_is_base_plus_tree(self):
        x, y = step_data(70, seed=12)
        cfg = BoostingConfig(n_estimators=1, learning_rate=1.0, tree=mean_tree())
        model = fit_boosting(x, y, cfg)
        expect = y.mean() + model.trees[0].predict(x)
        assert np.allclose(model.predict(x), expect, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BoostingConfig(n_estimators=0)
        with pytest.raises(ValueError):
            BoostingConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            BoostingConfig(p_resample=1.5)
        with pytest.raises(ValueError):
            ForestConfig(n_trees=0)


class TestInputBoundary:
    @pytest.mark.parametrize("fit, config", [
        (fit_forest, ForestConfig(n_trees=2, tree=mean_tree())),
        (fit_boosting, BoostingConfig(n_estimators=2, tree=mean_tree())),
    ], ids=["forest", "boosting"])
    def test_nan_response_rejected(self, fit, config):
        x, y = step_data(60, seed=3)
        y[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit(x, y, config)


class TestForestWithoutBootstrap:
    def config(self, n_trees):
        return ForestConfig(n_trees=n_trees, bootstrap=False, tau=1.0, tree=mean_tree(max_depth=3), seed=4)

    def test_bytes_match_trees_grown_one_by_one(self):
        x, y = step_data(120, seed=9)
        cfg = replace(self.config(4), tau=0.5)
        trees = []
        for t_index in range(cfg.n_trees):
            strategy = SearchStrategy(kind="leverage", tau=cfg.tau, seed=derive_seed(cfg.seed, t_index, 1))
            tree = grow(x.copy(), y.copy(), replace(cfg.tree, strategy=strategy))
            tree.drop_training_data()
            trees.append(tree)
        assert dumps(fit_forest(x, y, cfg)) == dumps(ForestModel(trees))

    def test_trees_grow_on_x_and_sort_each_column_once(self, monkeypatch):
        x, y = step_data(120, seed=10)
        grown_on_x, root_sorts = [], []
        grow_tree, argsort = ensemble.grow, np.argsort

        def recording_grow(a, b, config, **kwargs):
            grown_on_x.append(a is x and np.shares_memory(b, y))
            return grow_tree(a, b, config, **kwargs)

        def counting_argsort(a, *args, **kwargs):
            if np.shape(a) == (x.shape[0],):  # a root column, not the leverage sample keys
                root_sorts.append(np.asarray(a).tobytes())
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(ensemble, "grow", recording_grow)
        monkeypatch.setattr(splitting.np, "argsort", counting_argsort)
        fit_forest(x, y, self.config(5))
        assert grown_on_x == [True] * 5
        columns = [x[:, i, j].tobytes() for i in range(3) for j in range(3)]
        assert sorted(root_sorts) == sorted(columns)  # the trees share one cache


def _overflowing_lowrank():
    """A low-rank tensor-output model whose reconstruction overflows."""
    from tensortree.serialize import model_from_dict, model_to_dict
    from tensortree.tensor_output import OutputConfig, fit_lowrank

    rng = make_rng(10)
    x, y = rng.uniform(size=(40, 2, 2)), rng.normal(size=(40, 3))
    boost = BoostingConfig(n_estimators=1, tree=GrowConfig(max_depth=1))
    doc = model_to_dict(fit_lowrank(x, y, OutputConfig(approach="lowrank", rank=2, boosting=boost)))
    doc["ensembles"][0]["eta"] = 1.0
    node = doc["ensembles"][0]["trees"][0]["node"]
    while "leaf" not in node:
        node = node["left"]
    node["leaf"]["model"]["mean"] = 1e308
    return model_from_dict(doc), x


def _overflowing(kind):
    """A tree, boosting or forest model whose prediction overflows.

    Fits refuse responses whose squares overflow, so these come from
    model documents with ``1e308`` mean leaves.  A document cannot hold
    ``inf`` and one tree's mean leaves never sum, so the tree's leaf mean
    is set to ``inf`` in memory: the only way a mean leaf can overflow.
    """
    from tensortree.serialize import model_from_dict, model_to_dict

    x, y = step_data(40, 3)
    tree = GrowConfig(max_depth=1)
    fits = {
        "tree": lambda: grow(x, y, tree),
        "boosting": lambda: fit_boosting(x, y, BoostingConfig(n_estimators=1, tree=tree)),
        "forest": lambda: fit_forest(x, y, ForestConfig(n_trees=2, tree=tree)),
    }
    doc = model_to_dict(fits[kind]())
    if kind == "boosting":
        doc["f0"], doc["eta"] = 1e308, 1.0
    nodes = [t["node"] for t in doc.get("trees", [doc])]
    while nodes:
        node = nodes.pop()
        if "leaf" in node:
            node["leaf"]["model"]["mean"] = 1e308
        else:
            nodes += [node["left"], node["right"]]
    model = model_from_dict(doc)
    if kind == "tree":
        for leaf in model.leaves():
            leaf.model.mean = math.inf
    return model, x


@pytest.mark.parametrize("model", ["tree", "boosting", "forest", "lowrank"])
def test_every_public_predict_refuses_overflow(model):
    fitted, x = _overflowing_lowrank() if model == "lowrank" else _overflowing(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no overflow warning escapes
        with pytest.raises(ValueError, match="non-finite prediction"):
            fitted.predict(x)


# Each response is finite, but its squares (or the sums of a fit) overflow.
OVERFLOWING_FITS = {
    "grow-scaled-step": (lambda x, y: grow(x, y, GrowConfig()), lambda y: 1e160 * y),
    "grow-constant": (lambda x, y: grow(x, y, GrowConfig()), lambda y: np.full_like(y, 1.5e308)),
    "forest-constant": (lambda x, y: fit_forest(x, y, ForestConfig(n_trees=2)),
                        lambda y: np.full_like(y, 1.5e308)),
    "boosting-constant": (lambda x, y: fit_boosting(x, y, BoostingConfig(n_estimators=2)),
                          lambda y: np.full_like(y, 7.5e307)),
}


@pytest.mark.parametrize("name", list(OVERFLOWING_FITS))
def test_fits_refuse_responses_whose_squares_overflow(name):
    fit, scale = OVERFLOWING_FITS[name]
    x, y = step_data(40, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="responses too large"):
            fit(x, scale(y))


def test_largest_accepted_responses_fit_the_same_tree():
    # The squares of 1e150 * y are near 1e300 and sum to a finite value, so
    # the fit runs and finds the rule of the unscaled responses.
    x, y = step_data(40, 3)
    assert grow(x, 1e150 * y, GrowConfig()).root.rule == grow(x, y, GrowConfig()).root.rule
