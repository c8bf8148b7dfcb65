"""Boosting and forest ensembles: update identities and determinism."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tensortree import ensemble
from tensortree import tree as tree_module
from tensortree._rng import derive_seed, make_rng
from tensortree.ensemble import (
    BoostedModel,
    BoostingConfig,
    ForestConfig,
    ForestModel,
    fit_boosting,
    fit_forest,
)
from tensortree.leaf_models import FittedLeafModel, LeafModelSpec
from tensortree.serialize import dumps
from tensortree.splitting import SearchStrategy, SplitCriterion, SplitRule
from tensortree.tree import GrowConfig, LeafNode, PruneConfig, SplitNode, TensorTree, grow, prune
from tensortree.tree import _ColumnTable as ColumnTable

from test_splitting import dense_ranks, record_ranking


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
        grown_on_x = []
        grow_tree = ensemble.grow

        def recording_grow(a, b, config, **kwargs):
            grown_on_x.append(a is x and np.shares_memory(b, y))
            return grow_tree(a, b, config, **kwargs)

        monkeypatch.setattr(ensemble, "grow", recording_grow)
        ranked, root_sorts = record_ranking(monkeypatch, x.shape[0])
        fit_forest(x, y, self.config(5))
        assert grown_on_x == [True] * 5
        columns = [x[:, i, j] for i in range(3) for j in range(3)]
        assert sorted(ranked) == sorted(c.tobytes() for c in columns)
        # the trees share one rank table, which keeps each column's root order
        assert sorted(root_sorts) == sorted(dense_ranks(c).tobytes() for c in columns)


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


def _one_non_finite_leaf(kind, value):
    """A boosting, forest or entrywise model whose second tree has one mean leaf of ``value``.

    Only the ensemble's sum is checked, so these show that no tree's
    non-finite output is lost on its way there.
    """
    from tensortree.tensor_output import OutputConfig, fit_entrywise

    x, y = step_data(40, 3)
    tree = GrowConfig(max_depth=1)
    boost = BoostingConfig(n_estimators=2, tree=tree)
    if kind == "boosting":
        fitted = fit_boosting(x, y, boost)
        trees = fitted.trees
    elif kind == "forest":
        fitted = fit_forest(x, y, ForestConfig(n_trees=2, tree=tree))
        trees = fitted.trees
    else:
        fitted = fit_entrywise(x, np.column_stack([y, -y]), OutputConfig(boosting=boost))
        trees = fitted.ensembles[1].trees
    trees[1].leaves()[0].model.mean = value
    return fitted, x


def _zero_factor_meets_inf_column():
    """A low-rank CP model whose first output-factor column is zero and whose first column predicts ``inf``.

    Every output entry of a row that reaches the ``inf`` leaf is ``0 * inf``,
    so ``nan``, plus the finite other component.
    """
    from tensortree.tensor_output import OutputConfig, fit_lowrank

    rng = make_rng(10)
    x, y = rng.uniform(size=(40, 2, 2)), rng.normal(size=(40, 3))
    boost = BoostingConfig(n_estimators=1, tree=GrowConfig(max_depth=1))
    fitted = fit_lowrank(x, y, OutputConfig(approach="lowrank", rank=2, boosting=boost))
    fitted.output_factors[0][:, 0] = 0.0
    fitted.ensembles[0].trees[0].leaves()[0].model.mean = math.inf
    return fitted, x


OVERFLOWING_MODELS = {
    "tree": lambda: _overflowing("tree"),
    "boosting": lambda: _overflowing("boosting"),
    "forest": lambda: _overflowing("forest"),
    "lowrank": _overflowing_lowrank,
    **{f"{kind}-{name}-leaf": lambda kind=kind, value=value: _one_non_finite_leaf(kind, value)
       for kind in ("boosting", "forest", "entrywise")
       for name, value in (("inf", math.inf), ("nan", math.nan))},
    "lowrank-zero-factor-inf-column": _zero_factor_meets_inf_column,
}


@pytest.mark.parametrize("model", list(OVERFLOWING_MODELS))
def test_every_public_predict_refuses_overflow(model):
    fitted, x = OVERFLOWING_MODELS[model]()
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


def _routing_trees():
    """Two trees rooted on coords (0, 0); only the first one's left child splits, on (1, 1)."""
    rng = make_rng(40)
    x = rng.uniform(size=(200, 3, 3))
    child = grow(x, np.where(x[:, 0, 0] > 0.5, 5.0, 2.0 * (x[:, 1, 1] > 0.5)), mean_tree(max_depth=2))
    root = grow(x, 3.0 * (x[:, 0, 0] > 0.5), mean_tree(max_depth=2))
    assert child.root.rule.coords == root.root.rule.coords == (0, 0)
    assert child.root.left.rule.coords == (1, 1)
    assert isinstance(child.root.right, LeafNode) and isinstance(root.root.left, LeafNode)
    return child, root, rng.uniform(size=(30, 3, 3))


def _ensembles_of(trees):
    """A boosting model, a forest and an entrywise tensor-output model over ``trees``."""
    from tensortree.tensor_output import TensorOutputModel

    boosted = [BoostedModel(0.0, 1.0, [t]) for t in trees]
    return {
        "boosting": BoostedModel(0.5, 0.3, trees).predict,
        "forest": ForestModel(trees).predict,
        "predict_tensor": TensorOutputModel("entrywise", (len(trees),), boosted).predict,
    }


ENSEMBLE_KINDS = ["boosting", "forest", "predict_tensor"]


def _fresh_table_sums(trees, x):
    """What :func:`_ensembles_of` predicts, from each tree's own predict (one table per tree)."""
    each = [t.predict(x) for t in trees]
    boosting = np.full(x.shape[0], 0.5)
    forest = np.zeros(x.shape[0])
    for out in each:
        boosting += 0.3 * out
        forest += out
    return {
        "boosting": boosting,
        "forest": forest / len(trees),
        "predict_tensor": np.column_stack([np.full(x.shape[0], 0.0) + 1.0 * out for out in each]),
    }


def _repeating_stages():
    """Boosting trees on ``step_data`` inputs with two more steps; most stages repeat their rule paths."""
    x, y = step_data(200, seed=42)
    y = y + 1.5 * (x[:, 1, 1] >= 0.5) - 0.7 * (x[:, 2, 0] >= 0.4)
    model = fit_boosting(x, y, BoostingConfig(n_estimators=6, learning_rate=0.1, tree=mean_tree(max_depth=3)))
    return model.trees, x


def _split_paths(node, path=()):
    """The rule path of each split node under ``node``: every ancestor's rule and side, then its own rule."""
    if isinstance(node, LeafNode):
        return []
    rule = (node.rule.coords, node.rule.threshold)
    return ([path + (rule,)] + _split_paths(node.left, path + (rule, "left"))
            + _split_paths(node.right, path + (rule, "right")))


def _count_partitions(monkeypatch):
    """A list that gets one entry per :func:`tree._partition` call from now on."""
    calls = []
    partition = tree_module._partition
    monkeypatch.setattr(tree_module, "_partition",
                        lambda rows, go_left: calls.append(rows.size) or partition(rows, go_left))
    return calls


def _mean_leaf(value):
    return LeafNode(FittedLeafModel(kind="mean", feature_shape=(3, 3), n_samples=1, mean=value), None, 1, 0.0, 0.0)


def _node(coords, threshold, left, right):
    return SplitNode(SplitRule(coords, threshold), left, right)


def _path_variants():
    """A tree whose (1, 1) split sits left of a (0, 1) split under the root, and two near copies.

    In one the (0, 1) split has another threshold, in the other the (1, 1)
    split sits right of it; every leaf holds a distinct value.
    """
    inner = _node((1, 1), 0.5, _mean_leaf(1.0), _mean_leaf(2.0))
    base = _node((0, 0), 0.5, _node((0, 1), 0.4, inner, _mean_leaf(3.0)), _mean_leaf(4.0))
    threshold = _node((0, 0), 0.5, _node((0, 1), 0.6, inner, _mean_leaf(3.0)), _mean_leaf(4.0))
    side = _node((0, 0), 0.5, _node((0, 1), 0.4, _mean_leaf(3.0), inner), _mean_leaf(4.0))
    return [TensorTree(root, (3, 3), None) for root in (base, threshold, side)]


class TestSharedColumnTable:
    """Every tree of a predict routes one checked batch as a single tree would."""

    @pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
    def test_nan_that_no_reached_split_reads_raises_nothing(self, kind):
        child, root, x = _routing_trees()
        row = int(np.flatnonzero(x[:, 0, 0] > child.root.rule.threshold)[0])
        x_nan = x.copy()
        x_nan[row, 1, 1] = np.nan  # the row goes right at the root, where no split reads (1, 1)
        for t in (child, root):
            assert np.array_equal(t.predict(x_nan), t.predict(x))
        for trees in ([child, root], [child, child]):
            predict = _ensembles_of(trees)[kind]
            assert np.array_equal(predict(x_nan), predict(x))

    @pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
    @pytest.mark.parametrize("coords", [(0, 0), (1, 1)], ids=["root", "reached-child"])
    def test_nan_that_a_split_reads_raises(self, kind, coords):
        child, root, x = _routing_trees()
        row = int(np.flatnonzero(x[:, 0, 0] <= child.root.rule.threshold)[0])
        x_nan = x.copy()
        x_nan[(row,) + coords] = np.nan
        message = re.escape(f"non-finite input at split coords {coords}")
        with pytest.raises(ValueError, match=message):
            child.predict(x_nan)
        for trees in ([child, root], [child, child]):
            with pytest.raises(ValueError, match=message):
                _ensembles_of(trees)[kind](x_nan)

    @pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
    def test_trees_of_another_feature_shape_raise_value_error(self, kind):
        child, _, x = _routing_trees()
        x4 = make_rng(41).uniform(size=(100, 4, 4))
        wide = grow(x4, 3.0 * (x4[:, 3, 3] > 0.5), mean_tree(max_depth=1))
        assert wide.root.rule.coords == (3, 3)  # out of range on a (3, 3) batch
        with pytest.raises(ValueError, match="feature shape"):
            _ensembles_of([child, wide])[kind](x)

    def test_roots_on_one_coordinate_read_its_column_once_per_predict(self, monkeypatch):
        x, y = step_data(200, seed=42)
        model = fit_boosting(x, y, BoostingConfig(n_estimators=4, learning_rate=0.3, tree=mean_tree()))
        assert {t.root.rule.coords for t in model.trees} == {(0, 0)}
        reads = []
        read = ColumnTable._read
        monkeypatch.setattr(ColumnTable, "_read", lambda table, coords: reads.append(coords) or read(table, coords))
        for _ in range(2):
            reads.clear()
            out = model.predict(x)
            assert reads == [(0, 0)]
        expect = np.full(y.size, model.base_value)
        for t in model.trees:
            expect += model.learning_rate * t.predict(x)
        assert out.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
    def test_repeated_paths_give_the_bytes_of_fresh_tables(self, kind):
        trees, x = _repeating_stages()
        for batch in (x, make_rng(43).uniform(size=(300, 3, 3))):
            got = _ensembles_of(trees)[kind](batch)
            assert got.tobytes() == _fresh_table_sums(trees, batch)[kind].tobytes()

    @pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
    def test_each_path_is_partitioned_once_while_consecutive_trees_route_it(self, kind, monkeypatch):
        trees, x = _repeating_stages()
        paths = [_split_paths(t.root) for t in trees]
        # Every split node of a tree grown on x holds rows of x, so each path is partitioned
        # by the first of a run of consecutive trees that route it.
        expect = sum(len(set(now) - set(before)) for before, now in zip([[]] + paths, paths))
        assert len({p for ps in paths for p in ps}) < expect < sum(map(len, paths))
        calls = _count_partitions(monkeypatch)
        predict = _ensembles_of(trees)[kind]
        for _ in range(2):  # nothing is kept from one call to the next
            calls.clear()
            predict(x)
            assert len(calls) == expect

    @pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
    def test_paths_that_differ_in_an_ancestor_share_no_rows(self, kind, monkeypatch):
        base, threshold, side = _path_variants()
        x = make_rng(44).uniform(size=(400, 3, 3))
        calls = _count_partitions(monkeypatch)
        # the root is shared; the threshold variant re-partitions (0, 1) and (1, 1), the side variant (1, 1)
        for variant, partitions in ((threshold, 5), (side, 4)):
            calls.clear()
            got = _ensembles_of([base, variant])[kind](x)
            count = len(calls)
            assert got.tobytes() == _fresh_table_sums([base, variant], x)[kind].tobytes()
            assert count == partitions

    def test_a_tree_drops_the_kept_partitions_unless_it_has_the_kept_root_rule(self):
        base, threshold, _ = _path_variants()
        other_root = TensorTree(_node((0, 0), 0.6, _mean_leaf(1.0), _mean_leaf(2.0)), (3, 3), None)
        single_leaf = TensorTree(_mean_leaf(5.0), (3, 3), None)
        table = ColumnTable(make_rng(45).uniform(size=(400, 3, 3)))
        list(base._route(table))
        kept = set(table.partitions)
        assert len(kept) == 3
        walk = threshold._route(table)
        next(walk)
        assert set(table.partitions) == kept  # the same root rule: the walk may reuse them
        list(walk)
        assert len(table.partitions) == 3 and set(table.partitions) != kept
        for tree in (other_root, single_leaf):
            list(base._route(table))
            walk = tree._route(table)
            next(walk)
            assert table.partitions == {}  # dropped before the first leaf is reached
            list(walk)
        assert table.partitions == {}
