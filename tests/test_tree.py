"""Growing, predicting, complexity and pruning of single trees."""

import gc

import numpy as np
import pytest

from tensortree import tree as tree_module
from tensortree._rng import make_rng
from tensortree.decomposition import AlsConfig
from tensortree.ensemble import BoostingConfig, fit_boosting
from tensortree.leaf_models import LeafModelSpec, fit_leaf, predict_leaf
from tensortree.splitting import SearchStrategy, SplitCriterion
from tensortree.tree import GrowConfig, PruneConfig, complexity, grow, prune


def piecewise_data(n, seed, sigma=np.sqrt(0.1)):
    rng = make_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 4, 4, 4))
    f = np.where(x[:, 0, 1, 0] >= 0.4, 5.0, np.where(x[:, 2, 2, 0] >= 0.65, -1.0, -4.0))
    return x, f + rng.normal(0.0, sigma, size=n), f


def mean_config(max_depth, min_samples_leaf=5):
    return GrowConfig(
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        criterion=SplitCriterion(kind="sse"),
        strategy=SearchStrategy(kind="exhaustive"),
        leaf=LeafModelSpec(kind="mean"),
    )


class TestGrow:
    def test_depth_zero_is_single_leaf_model(self):
        rng = make_rng(1)
        x = rng.uniform(-1, 1, size=(60, 3, 3))
        y = rng.normal(size=60)
        spec = LeafModelSpec(kind="cp", rank=1)
        tree = grow(x, y, GrowConfig(max_depth=0, leaf=spec))
        direct = predict_leaf(fit_leaf(x, y, spec), x)
        assert np.allclose(tree.predict(x), direct, atol=1e-12)
        assert tree.n_leaves == 1

    def test_constant_response_stays_depth_zero(self):
        rng = make_rng(2)
        x = rng.normal(size=(40, 2, 2))
        tree = grow(x, np.full(40, 3.0), mean_config(max_depth=3))
        assert tree.depth() == 0

    def test_recovers_piecewise_structure(self):
        x, y, _ = piecewise_data(500, seed=3)
        tree = grow(x, y, mean_config(max_depth=3))
        assert tree.depth() == 2
        root = tree.root
        assert root.rule.coords == (0, 1, 0)
        assert abs(root.rule.threshold - 0.4) < 0.05
        second = root.left
        assert second.rule.coords == (2, 2, 0)
        assert abs(second.rule.threshold - 0.65) < 0.05

    def test_depth_and_leaf_size_limits(self):
        x, y, _ = piecewise_data(300, seed=4)
        for md in (0, 1, 2):
            tree = grow(x, y, mean_config(max_depth=md))
            assert tree.depth() <= md
        tree = grow(x, y, mean_config(max_depth=4, min_samples_leaf=30))
        assert min(leaf.n for leaf in tree.leaves()) >= 30

    def test_accepted_sse_splits_reduce_within_ss(self):
        # classical decomposition: within-children sum of squares never
        # exceeds the parent's, checked on every accepted split
        x, y, _ = piecewise_data(400, seed=5)
        tree = grow(x, y, mean_config(max_depth=3))

        def walk(node, rows):
            from tensortree.tree import LeafNode

            if isinstance(node, LeafNode):
                return
            col = x[(rows,) + tuple(node.rule.coords)]
            left = rows[col <= node.rule.threshold]
            right = rows[col > node.rule.threshold]
            parent_ss = np.sum((y[rows] - y[rows].mean()) ** 2)
            child_ss = np.sum((y[left] - y[left].mean()) ** 2) + np.sum(
                (y[right] - y[right].mean()) ** 2
            )
            assert child_ss <= parent_ss + 1e-9
            walk(node.left, left)
            walk(node.right, right)

        walk(tree.root, np.arange(x.shape[0]))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            grow(np.zeros((0, 2, 2)), np.zeros(0), mean_config(1))

    def test_tuple_split_rank_rejected_for_cp_family(self):
        lre = SplitCriterion(kind="lre", split_rank=(2, 2, 2))
        with pytest.raises(ValueError, match="split rank"):
            GrowConfig(criterion=lre)
        with pytest.raises(ValueError, match="split rank"):
            GrowConfig(criterion=lre, leaf=LeafModelSpec(kind="cp", rank=2))
        with pytest.raises(ValueError, match="split rank"):
            GrowConfig(criterion=SplitCriterion(kind="lae", split_rank=(2, 2, 2)))

    def test_tuple_split_rank_with_tucker_leaves_grows(self):
        x, y, _ = piecewise_data(40, seed=7)
        als = AlsConfig(max_iterations=3)
        cfg = GrowConfig(
            max_depth=1,
            min_samples_leaf=10,
            criterion=SplitCriterion(kind="lre", split_rank=(2, 2, 2), value_mode="mean", als=als),
            leaf=LeafModelSpec(kind="tucker", rank=2, als=als),
        )
        assert grow(x, y, cfg).predict(x).shape == (40,)

    def test_determinism(self):
        x, y, _ = piecewise_data(200, seed=6)
        cfg = GrowConfig(
            max_depth=3,
            criterion=SplitCriterion(kind="sse"),
            strategy=SearchStrategy(kind="leverage", tau=0.5, seed=9),
            leaf=LeafModelSpec(kind="mean"),
        )
        t1 = grow(x, y, cfg)
        t2 = grow(x, y, cfg)
        assert np.array_equal(t1.predict(x), t2.predict(x))
        assert np.array_equal(t1.apply(x), t2.apply(x))


def test_root_search_reads_the_input_in_place(monkeypatch):
    x, y, _ = piecewise_data(120, seed=3)
    searched = []
    search = tree_module.find_best_split

    def recording(xs, ys, *args, **kwargs):
        searched.append((xs, ys))
        return search(xs, ys, *args, **kwargs)

    monkeypatch.setattr(tree_module, "find_best_split", recording)
    grow(x, y, mean_config(max_depth=2))
    assert len(searched) == 3
    (root_x, root_y), *children = searched
    assert root_x is x and np.shares_memory(root_y, y)
    assert not any(np.shares_memory(xs, x) for xs, _ in children)


class TestPredictApply:
    def test_depth_zero_mean_constant(self):
        rng = make_rng(7)
        x = rng.normal(size=(25, 2, 2))
        y = rng.normal(size=25)
        tree = grow(x, y, mean_config(max_depth=0))
        assert np.allclose(tree.predict(x), y.mean(), atol=1e-14)

    def test_training_rows_exact_on_separable_data(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1)
        y = np.array([1.0, 1.0, 10.0, 10.0])
        tree = grow(x, y, mean_config(max_depth=1, min_samples_leaf=1))
        assert np.array_equal(tree.predict(x), y)

    def test_predict_reproducible(self):
        x, y, _ = piecewise_data(150, seed=8)
        tree = grow(x, y, mean_config(max_depth=2))
        assert np.array_equal(tree.predict(x), tree.predict(x))

    def test_apply_partition(self):
        x, y, _ = piecewise_data(150, seed=9)
        tree = grow(x, y, mean_config(max_depth=2))
        ids = tree.apply(x)
        assert ids.shape == (150,)
        counts = np.bincount(ids, minlength=tree.n_leaves)
        assert counts.sum() == 150
        assert np.array_equal(np.sort(np.unique(ids)), np.arange(tree.n_leaves))
        leaf_ns = np.array([leaf.n for leaf in tree.leaves()])
        assert np.array_equal(counts, leaf_ns)

    def test_apply_depth_zero_all_same(self):
        rng = make_rng(10)
        x = rng.normal(size=(10, 2, 2))
        tree = grow(x, rng.normal(size=10), mean_config(max_depth=0))
        assert np.all(tree.apply(x) == 0)

    def test_shape_mismatch_rejected(self):
        x, y, _ = piecewise_data(50, seed=11)
        tree = grow(x, y, mean_config(max_depth=1))
        with pytest.raises(ValueError):
            tree.predict(np.zeros((3, 4, 4)))


def _reference_leaf(node, row):
    """The leaf that one input row reaches, walked rule by rule in plain Python."""
    while isinstance(node, tree_module.SplitNode):
        node = node.left if row[tuple(node.rule.coords)] <= node.rule.threshold else node.right
    return node


def _split_nodes(node):
    if isinstance(node, tree_module.LeafNode):
        return []
    return [node] + _split_nodes(node.left) + _split_nodes(node.right)


ROUTING_LEAVES = {
    "mean": LeafModelSpec(kind="mean"),
    "cp": LeafModelSpec(kind="cp", rank=1, als=AlsConfig(max_iterations=3)),
    "tucker": LeafModelSpec(kind="tucker", rank=1, als=AlsConfig(max_iterations=3)),
}


class TestRoutingAgainstReferenceWalk:
    """Trees route as a per-row walk does, and every leaf gets its rows in ascending order."""

    @staticmethod
    def _data(n, seed):
        # values on a grid of five, so many rows sit exactly on a threshold; six
        # steps of halving height, so every depth up to 6 finds a split
        x = np.round(make_rng(seed).uniform(size=(n, 3, 3)) * 4) / 4
        steps = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2)]
        y = sum(2.0 ** (5 - k) * (x[:, i, j] > 0.5) for k, (i, j) in enumerate(steps))
        return x, y + 0.1 * make_rng(seed + 1).normal(size=n)

    @pytest.mark.parametrize("leaf", sorted(ROUTING_LEAVES))
    @pytest.mark.parametrize("max_depth", range(7))
    def test_predict_and_apply_match_the_reference(self, max_depth, leaf):
        x, y = self._data(120, seed=30)
        tree = grow(x, y, GrowConfig(max_depth=max_depth, min_samples_leaf=2, leaf=ROUTING_LEAVES[leaf]))
        assert tree.depth() == max_depth
        on_threshold = [(x[(slice(None),) + tuple(n.rule.coords)] == n.rule.threshold).any()
                        for n in _split_nodes(tree.root)]
        assert all(on_threshold)
        fresh = np.concatenate([self._data(60, seed=32)[0], make_rng(34).uniform(size=(60, 3, 3))])
        for rows_of, data in (("train", x), ("fresh", fresh)):
            ids = np.array([_reference_leaf(tree.root, row).leaf_id for row in data])
            assert np.array_equal(tree.apply(data), ids), rows_of
            expect = np.empty(data.shape[0])
            for leaf_node in tree.leaves():
                rows = np.flatnonzero(ids == leaf_node.leaf_id)
                if leaf_node.model.kind == "mean":
                    expect[rows] = leaf_node.model.mean
                elif rows.size:
                    expect[rows] = predict_leaf(leaf_node.model, data[rows])
                if rows_of == "train":
                    assert np.array_equal(leaf_node.indices, rows)
            assert tree.predict(data).tobytes() == expect.tobytes(), rows_of
            for _, rows in tree._route(tree_module._ColumnTable(data)):
                assert np.all(np.diff(rows) > 0), rows_of


class TestComplexity:
    def test_single_leaf_constant_response_alpha_zero(self):
        x = np.zeros((5, 2, 2))
        tree = grow(x, np.full(5, 2.0), mean_config(max_depth=0))
        assert complexity(tree, PruneConfig(alpha=0.0)) == 0.0

    def test_linear_in_alpha(self):
        x, y, _ = piecewise_data(200, seed=12)
        tree = grow(x, y, mean_config(max_depth=2))
        delta = 0.37
        c0 = complexity(tree, PruneConfig(alpha=0.0))
        c1 = complexity(tree, PruneConfig(alpha=delta))
        assert c1 - c0 == pytest.approx(delta * tree.n_leaves, rel=1e-12)

    def test_two_leaf_hand_computation(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1)
        y = np.array([0.0, 2.0, 10.0, 14.0])
        tree = grow(x, y, mean_config(max_depth=1, min_samples_leaf=1))
        assert tree.n_leaves == 2
        # children {0, 2} and {10, 14}: N*Q = 4*var = 2 and 8
        expect = 2.0 + 8.0 + 0.5 * 2
        assert complexity(tree, PruneConfig(alpha=0.5)) == pytest.approx(expect, rel=1e-12)

    def test_tensor_loss_quality_uses_model_residual(self):
        x, y, _ = piecewise_data(100, seed=13)
        tree = grow(x, y, mean_config(max_depth=1))
        cfg = PruneConfig(alpha=0.0, quality="tensor_loss")
        total = sum(leaf.n * leaf.model_mse for leaf in tree.leaves())
        assert complexity(tree, cfg) == pytest.approx(total, rel=1e-12)

    def test_lae_quality_sums_per_leaf_reconstruction_errors(self):
        from tensortree.decomposition import approximation_error, cp_als

        x, y, _ = piecewise_data(80, seed=19)
        tree = grow(x, y, mean_config(max_depth=1))
        cfg = PruneConfig(alpha=0.25, quality="lae", lae_rank=1, als=AlsConfig(max_iterations=8))
        total = 0.0
        for leaf in tree.leaves():
            xs = x[leaf.indices]
            decomp, _ = cp_als(xs, 1, cfg.als)
            total += approximation_error(xs, decomp)
        expect = total + 0.25 * tree.n_leaves
        assert complexity(tree, cfg) == pytest.approx(expect, rel=1e-9)
        pruned = prune(tree, cfg)
        assert complexity(pruned, cfg) <= complexity(tree, cfg) + 1e-9

    def test_lae_quality_requires_rank(self):
        with pytest.raises(ValueError):
            PruneConfig(alpha=0.1, quality="lae")


class TestPrune:
    def test_strict_gain_split_retained_at_alpha_zero(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1)
        y = np.array([1.0, 1.0, 10.0, 10.0])
        tree = grow(x, y, mean_config(max_depth=1, min_samples_leaf=1))
        pruned = prune(tree, PruneConfig(alpha=0.0))
        assert pruned.n_leaves == 2

    def test_huge_alpha_collapses_to_single_leaf(self):
        x, y, _ = piecewise_data(300, seed=14)
        tree = grow(x, y, mean_config(max_depth=3))
        pruned = prune(tree, PruneConfig(alpha=1e9))
        assert pruned.n_leaves == 1
        assert pruned.predict(x[:1])[0] == pytest.approx(y.mean(), abs=1e-12)

    def test_piecewise_data_prunes_to_three_or_four_leaves(self):
        hits = []
        for rep in range(10):
            x, y, _ = piecewise_data(500, seed=100 + rep)
            tree = grow(x, y, mean_config(max_depth=3))
            pruned = prune(tree, PruneConfig(alpha=0.1, quality="variance"))
            hits.append(pruned.n_leaves in (3, 4))
        assert np.mean(hits) >= 0.8

    def test_complexity_never_increases(self):
        for alpha in (0.0, 0.05, 0.5, 5.0):
            x, y, _ = piecewise_data(250, seed=15)
            tree = grow(x, y, mean_config(max_depth=3))
            cfg = PruneConfig(alpha=alpha)
            assert complexity(prune(tree, cfg), cfg) <= complexity(tree, cfg) + 1e-12

    def test_pruned_tree_keeps_partition_invariants(self):
        x, y, _ = piecewise_data(250, seed=16)
        tree = grow(x, y, mean_config(max_depth=4))
        pruned = prune(tree, PruneConfig(alpha=0.2))
        ids = pruned.apply(x)
        assert np.bincount(ids).sum() == 250
        assert min(leaf.n for leaf in pruned.leaves()) >= 5

    def test_collapsed_leaf_refit_uses_leaf_spec(self):
        rng = make_rng(17)
        x = rng.uniform(-1, 1, size=(120, 3, 3))
        b0 = np.outer(rng.normal(size=3), rng.normal(size=3))
        y = x.reshape(120, -1) @ b0.ravel()
        cfg = GrowConfig(
            max_depth=1,
            criterion=SplitCriterion(kind="sse"),
            leaf=LeafModelSpec(kind="cp", rank=1),
        )
        tree = grow(x, y, cfg)
        pruned = prune(tree, PruneConfig(alpha=1e9, quality="tensor_loss"))
        assert pruned.n_leaves == 1
        assert pruned.leaves()[0].model.kind == "cp"

    def test_loaded_tree_cannot_be_pruned(self):
        from tensortree.serialize import loads, dumps

        x, y, _ = piecewise_data(60, seed=18)
        tree = grow(x, y, mean_config(max_depth=1))
        restored = loads(dumps(tree))
        with pytest.raises(ValueError):
            prune(restored, PruneConfig(alpha=0.1))


def forbid_fits(monkeypatch):
    """Make every decomposition or leaf fit that grow or prune could start fail the test."""
    from tensortree import splitting, tree

    def fail(*args, **kwargs):
        raise AssertionError("a fit started before the config was rejected")

    for module, name in [(splitting, "cp_als"), (splitting, "tucker_als"),
                         (splitting, "fit_leaf"), (tree, "fit_leaf")]:
        monkeypatch.setattr(module, name, fail)


class TestRankChecks:
    @pytest.mark.parametrize(
        "rank, decomp", [((2, 2), "cp"), (0, "cp"), (0, "tucker"), ((2, 0, 1), "tucker")]
    )
    def test_bad_prune_lae_rank_rejected_when_config_is_built(self, rank, decomp):
        with pytest.raises(ValueError, match="lae_rank"):
            PruneConfig(alpha=0.1, quality="lae", lae_rank=rank, lae_decomp=decomp)

    @pytest.mark.parametrize(
        "criterion, leaf",
        [
            (SplitCriterion(kind="lae", decomp="tucker", split_rank=(9, 9, 9)), LeafModelSpec()),
            (SplitCriterion(kind="lae", decomp="tucker", split_rank=(2, 2)), LeafModelSpec()),
            (SplitCriterion(kind="sse"), LeafModelSpec(kind="tucker", rank=(2, 5))),
            (SplitCriterion(kind="lre", split_rank=(2, 9)), LeafModelSpec(kind="tucker", rank=2)),
        ],
        ids=["lae-above-extent", "lae-wrong-length", "leaf-above-extent", "lre-above-extent"],
    )
    def test_grow_rejects_tuple_ranks_before_any_fit(self, criterion, leaf, monkeypatch):
        rng = make_rng(20)
        x, y = rng.uniform(size=(40, 4, 4)), rng.normal(size=40)
        forbid_fits(monkeypatch)
        with pytest.raises(ValueError, match="rank"):
            grow(x, y, GrowConfig(max_depth=1, criterion=criterion, leaf=leaf))

    def test_lae_observation_rank_above_node_size_falls_back_to_mean(self):
        rng = make_rng(21)
        x, y = rng.uniform(size=(40, 4, 4)), rng.normal(size=40)
        crit = SplitCriterion(kind="lae", decomp="tucker", split_rank=(100, 2, 2), value_mode="mean")
        tree = grow(x, y, GrowConfig(max_depth=1, criterion=crit))
        assert tree.n_leaves >= 1

    def test_prune_rejects_lae_rank_above_extent(self, monkeypatch):
        x, y, _ = piecewise_data(60, seed=22)
        tree = grow(x, y, mean_config(max_depth=1))
        cfg = PruneConfig(alpha=0.1, quality="lae", lae_rank=(2, 9, 2, 2), lae_decomp="tucker")
        forbid_fits(monkeypatch)
        with pytest.raises(ValueError, match="rank"):
            prune(tree, cfg)


class TestNonFiniteRouting:
    @pytest.mark.parametrize("method", ["predict", "apply"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_routed_value_rejected(self, method, bad):
        x, y, _ = piecewise_data(100, seed=23)
        tree = grow(x, y, mean_config(max_depth=2))
        x_new = x[:10].copy()
        x_new[(3,) + tuple(tree.root.rule.coords)] = bad
        with pytest.raises(ValueError, match="non-finite"):
            getattr(tree, method)(x_new)

    def test_values_no_split_reads_are_not_inspected(self):
        x, y, _ = piecewise_data(100, seed=24)
        tree = grow(x, y, mean_config(max_depth=1))
        root = tuple(tree.root.rule.coords)
        other = next(c for c in np.ndindex(*x.shape[1:]) if c != root)
        x_new = x[:10].copy()
        x_new[(slice(None),) + other] = np.nan
        assert np.array_equal(tree.predict(x_new), tree.predict(x[:10]))

    @pytest.mark.parametrize("leaf", [LeafModelSpec(kind="cp", rank=1),
                                      LeafModelSpec(kind="tucker", rank=1)],
                             ids=["cp", "tucker"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_low_rank_leaf_rejects_non_finite_unrouted_value(self, leaf, bad):
        # a low-rank leaf reads every feature, so a value no split reads still counts
        x, y, _ = piecewise_data(100, seed=26)
        tree = grow(x, y, GrowConfig(max_depth=1, min_samples_leaf=20, leaf=leaf))
        root = tuple(tree.root.rule.coords)
        other = next(c for c in np.ndindex(*x.shape[1:]) if c != root)
        assert np.isfinite(tree.predict(x[:10])).all()
        x_new = x[:10].copy()
        x_new[(4,) + other] = bad
        with pytest.raises(ValueError, match="non-finite prediction: a non-finite input value"):
            tree.predict(x_new)
        with pytest.raises(ValueError, match="non-finite prediction: a non-finite input value"):
            predict_leaf(tree.root.left.model, x_new)


class TestSinglePassWalks:
    def test_tree_passes_leave_no_cyclic_garbage(self):
        x, y, _ = piecewise_data(200, seed=25)
        gc.collect()
        gc.disable()
        try:
            tree = grow(x, y, mean_config(max_depth=3))
            tree.depth()
            pruned = prune(tree, PruneConfig(alpha=0.5))
            pruned.predict(x)
            pruned.apply(x)
            fit_boosting(x, y, BoostingConfig(n_estimators=3, tree=mean_config(max_depth=3),
                                              prune=PruneConfig(alpha=0.5)))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_lae_prune_scores_each_node_once(self, monkeypatch):
        x = make_rng(26).uniform(size=(80, 3, 3))
        y = 4.0 * (x[:, 0, 0] > 0.5) + 2.0 * (x[:, 1, 1] > 0.5)
        tree = grow(x, y, mean_config(max_depth=2))
        assert tree.n_leaves == 4
        calls = []
        real = tree_module._lae_term
        monkeypatch.setattr(tree_module, "_lae_term", lambda *a: calls.append(a) or real(*a))
        cfg = PruneConfig(alpha=0.1, quality="lae", lae_rank=2, lae_decomp="tucker",
                          als=AlsConfig(max_iterations=5))
        prune(tree, cfg)
        assert len(calls) == 4 + 3

    def test_variance_prune_fits_no_leaf_for_a_kept_split(self, monkeypatch):
        x = make_rng(28).uniform(size=(300, 4, 4))
        y = (4.0 * (x[:, 0, 0] > 0.5) + 2.0 * (x[:, 1, 1] > 0.5) + (x[:, 2, 2] > 0.5)
             + make_rng(29).normal(0.0, 0.1, 300))
        leaf = LeafModelSpec(kind="cp", rank=1, als=AlsConfig(max_iterations=5))
        tree = grow(x, y, GrowConfig(max_depth=3, leaf=leaf))
        assert tree.n_leaves == 8
        calls = []
        monkeypatch.setattr(tree_module, "fit_leaf", lambda *a: calls.append(a) or fit_leaf(*a))
        assert prune(tree, PruneConfig(alpha=0.01)).n_leaves == 8
        assert len(calls) == 0

    def test_mean_leaf_predict_reads_no_features(self, monkeypatch):
        x, y, _ = piecewise_data(100, seed=27)
        tree = grow(x, y, mean_config(max_depth=2))
        expect = np.array([tree.leaves()[i].model.mean for i in tree.apply(x)])
        monkeypatch.setattr(tree_module, "predict_leaf", None)
        assert np.array_equal(tree.predict(x), expect)
