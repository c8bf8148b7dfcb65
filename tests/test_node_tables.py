"""Node tables kept by rule path: a tree reuses the node sort orders of the previous tree on its rank table.

A rank table that serves every row of its input keeps the tables of the
searched non-root nodes of the last tree grown on it, with their sort
orders; the next tree's node on the same rule path takes them instead of
argsorting its rows again.  These tests pin that the reuse moves no
byte, that it removes the repeated argsorts, that resampled fits sort as
before, and that a kept table whose rows are not the node's is never read.
"""

from dataclasses import replace

import numpy as np
import pytest

from tensortree import ensemble, splitting
from tensortree._rng import make_rng
from tensortree.data import SyntheticSpec, generate
from tensortree.decomposition import AlsConfig
from tensortree.ensemble import BoostingConfig, ForestConfig, fit_boosting, fit_forest
from tensortree.leaf_models import LeafModelSpec
from tensortree.serialize import dumps
from tensortree.splitting import SearchStrategy, SplitCriterion, _RankTable
from tensortree.tensor_output import OutputConfig, fit_entrywise
from tensortree.tree import GrowConfig, LeafNode, PruneConfig, grow

ALS = AlsConfig(max_iterations=5, rel_tolerance=1e-7, seed=0)
# Large enough leaves that the unweighted child-variance sum splits on the steps, not on a few rows.
SHALLOW = GrowConfig(max_depth=3, min_samples_leaf=20)
VARIANTS = ["plain", "tied", "signed_zeros"]  # ties and +-0.0 share rank keys


def _variant(x, kind):
    """``x`` as is, rounded so that distinct rows tie, or with -0.0, 0.0 and 1.0 in its first column."""
    if kind == "tied":
        return np.round(x * 16) / 16
    if kind == "signed_zeros":
        col = (slice(None),) + (0,) * (x.ndim - 1)
        x[col] = np.where(x[col] < 0.3, -0.0, np.where(x[col] < 0.6, 0.0, 1.0))
    return x


def step_stack(kind="plain", n=240, seed=3):
    """``prune_fn`` inputs in a variant and a two-step response, on which boosting stages repeat their paths."""
    x, _ = generate(SyntheticSpec(generator="prune_fn", n=n, seed=seed))
    x = _variant(x, kind)
    noise = make_rng(seed).normal(0.0, 0.1, n)
    return x, 2.0 * (x[:, 0, 0, 0] > 0.5) + 1.0 * (x[:, 1, 2, 1] > 0.5) + noise


def fig5_stack(kind="plain", n=48, seed=2):
    """``fig5_interaction`` inputs in a variant, for the ``lre`` fits."""
    x, y = generate(SyntheticSpec(generator="fig5_interaction", n=n, noise_sigma=0.1, seed=seed))
    return _variant(x, kind), y


def boosting(tree=SHALLOW, **kwargs):
    return BoostingConfig(**{"n_estimators": 8, "learning_rate": 0.1, "tree": tree, **kwargs})


LRE = GrowConfig(max_depth=2, min_samples_leaf=8,
                 criterion=SplitCriterion(kind="lre", split_rank=1, als=ALS),
                 leaf=LeafModelSpec(kind="cp", rank=1, als=ALS))

# name -> (inputs, boosting config without resampling)
BOOSTING_FITS = {
    "sse_exhaustive": (step_stack, boosting()),
    "sse_leverage": (step_stack, boosting(replace(SHALLOW, strategy=SearchStrategy("leverage", 0.5, seed=3)))),
    "sse_bb": (step_stack, boosting(replace(SHALLOW, strategy=SearchStrategy("bb", xi=1)))),
    "sse_mean_value": (step_stack, boosting(replace(SHALLOW, criterion=SplitCriterion(value_mode="mean")))),
    "lre_cp_leaves": (fig5_stack, boosting(LRE, n_estimators=3, learning_rate=0.3)),
    "pruned": (step_stack, boosting(prune=PruneConfig(alpha=0.5))),
}


def forget_node_tables(monkeypatch):
    """From now on every table forgets the node tables each tree kept, so every path lookup misses."""
    end_tree = _RankTable.end_tree

    def forget(self):
        end_tree(self)
        self.nodes = {}

    monkeypatch.setattr(_RankTable, "end_tree", forget)


def record_lookups(monkeypatch):
    """A list that gets, per path lookup on a whole-input table, whether it took a kept table."""
    taken = []
    node = _RankTable.node

    def recording(self, path, rows):
        kept = self.nodes.get(path)
        table = node(self, path, rows)
        if self.rows is None and self.keep:
            taken.append(table is kept)
        return table

    monkeypatch.setattr(_RankTable, "node", recording)
    return taken


def record_argsorts(monkeypatch):
    """A list that gets the length of each array the split search argsorts (patched as in ``record_ranking``)."""
    sizes = []
    argsort = np.argsort

    def recording_argsort(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(splitting.np, "argsort", recording_argsort)
    return sizes


def searched_paths(tree, config):
    """``{path: rows}`` of each searched non-root node of a fitted ``tree``, keyed as the rank table keys them."""
    found = {}

    def walk(node, path):
        if isinstance(node, LeafNode):
            depth = len(path) // 2
            searched = depth < config.max_depth and node.n >= max(2, 2 * config.min_samples_leaf)
            rows = node.indices
        else:
            key = path + ((tuple(node.rule.coords), node.rule.threshold),)
            rows = np.concatenate([walk(node.left, key + ("left",)), walk(node.right, key + ("right",))])
            rows.sort()
            searched = True
        if path and searched:
            found[path] = rows
        return rows

    walk(tree.root, ())
    return found


class TestReuseKeepsTheBytes:
    @pytest.mark.parametrize("kind", VARIANTS)
    @pytest.mark.parametrize("name", list(BOOSTING_FITS))
    def test_boosting_without_resampling(self, name, kind, monkeypatch):
        data, config = BOOSTING_FITS[name]
        x, y = data(kind)
        taken = record_lookups(monkeypatch)
        got = dumps(fit_boosting(x, y, config))
        assert any(taken)  # the fit reused node orders
        forget_node_tables(monkeypatch)
        taken.clear()
        assert got == dumps(fit_boosting(x, y, config))
        assert taken and not any(taken)

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_forest_without_bootstrap(self, kind, monkeypatch):
        x, y = step_stack(kind)
        config = ForestConfig(n_trees=4, bootstrap=False, tau=0.5, tree=SHALLOW, seed=5)
        taken = record_lookups(monkeypatch)
        got = dumps(fit_forest(x, y, config))
        assert taken
        forget_node_tables(monkeypatch)
        assert got == dumps(fit_forest(x, y, config))

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_entrywise_outputs_share_one_table(self, n_threads, monkeypatch):
        x, y = generate(SyntheticSpec(generator="table2_nonlinear", n=120, seed=3))
        config = OutputConfig(boosting=BoostingConfig(
            n_estimators=3, learning_rate=0.5, tree=GrowConfig(max_depth=2, min_samples_leaf=3), seed=7))
        taken = record_lookups(monkeypatch)
        model = fit_entrywise(x, y, config, n_threads=n_threads)
        # every tree splits below its root, so its children search
        assert all(t.n_leaves > 2 for ens in model.ensembles for t in ens.trees)
        assert bool(taken) == (n_threads == 1)  # workers look up in their own processes
        got = dumps(model)
        forget_node_tables(monkeypatch)
        assert got == dumps(fit_entrywise(x, y, config, n_threads=n_threads))


class TestReuseWork:
    def test_later_stages_argsort_nothing_on_repeated_paths(self, monkeypatch):
        x, y = step_stack()
        config = boosting(n_estimators=10, learning_rate=0.05)
        first = len(searched_paths(grow(x, y - y.mean(), config.tree), config.tree))
        taken = record_lookups(monkeypatch)
        sizes = record_argsorts(monkeypatch)
        fit_boosting(x, y, replace(config, n_estimators=1))
        one_stage = sizes[:]
        sizes.clear()
        taken.clear()
        fit_boosting(x, y, config)
        # every later stage repeats every searched path of the stage before it
        repeated = len(taken) - first
        assert taken == [False] * first + [True] * repeated and repeated > 0
        assert sizes == one_stage  # the root's orders, then the first stage's node orders
        forget_node_tables(monkeypatch)
        sizes.clear()
        fit_boosting(x, y, config)
        # without the kept tables each repeated path argsorts its 64 columns again
        assert len(sizes) == len(one_stage) + repeated * 64

    @pytest.mark.parametrize("fit, argsorts", [
        (lambda x, y: fit_boosting(x, y, boosting(p_resample=0.6, seed=4)), 1536),
        (lambda x, y: fit_forest(x, y, ForestConfig(n_trees=4, tau=1.0, tree=SHALLOW, seed=5)), 1820),
    ], ids=["resampled_boosting", "bootstrap_forest"])
    def test_resampled_fits_argsort_as_before(self, fit, argsorts, monkeypatch):
        # Resampled trees grow on row draws, which keep no orders; the counts are the parent's.
        x, y = step_stack("tied")
        sizes = record_argsorts(monkeypatch)
        made = []
        monkeypatch.setattr(ensemble, "_RankTable", lambda x: made.append(_RankTable(x)) or made[-1])
        fit(x, y)
        assert len(sizes) == argsorts
        assert [table.nodes for table in made] == [{}]

    def test_the_root_keeps_the_last_trees_searched_nodes(self):
        x, y = step_stack("tied")
        table = _RankTable(x)
        first = grow(x, y, SHALLOW, _ranks=table)
        kept = dict(table.nodes)
        assert set(kept) == set(searched_paths(first, SHALLOW))
        # a second tree on other responses shares some paths with the first, not all
        second = grow(x, y + 1.5 * (x[:, 2, 3, 0] > 0.5), SHALLOW, _ranks=table)
        paths = searched_paths(second, SHALLOW)
        assert set(table.nodes) == set(paths)
        shared = set(paths) & set(kept)
        assert shared and shared != set(paths)
        for path, node_table in table.nodes.items():
            assert (node_table is kept.get(path)) == (path in shared)
            assert np.array_equal(node_table.rows, paths[path]) and node_table.keep
            assert sorted(node_table.orders) == sorted(node_table.keys)
            for coords, order in node_table.orders.items():
                col = x[(paths[path],) + coords]
                assert np.array_equal(order, np.argsort(col, kind="stable"))
                assert np.array_equal(node_table.keys[coords], table.ranks[coords][paths[path]][order])

    def test_a_kept_table_of_other_rows_is_not_used(self):
        x, y = step_stack("signed_zeros")
        table = _RankTable(x)
        grow(x, y, SHALLOW, _ranks=table)
        # Each kept table now holds the rows of another node, with their orders already read.
        paths = list(table.nodes)
        tables = [table.nodes[p] for p in paths]
        wrong = {}
        for path, other in zip(paths, tables[1:] + tables[:1]):
            assert not np.array_equal(other.rows, table.nodes[path].rows)
            wrong[path] = other
            for coords in np.ndindex(4, 4, 4):
                other.keyed_order(coords)
        table.nodes = wrong
        got = grow(x, y, SHALLOW, _ranks=table)
        assert dumps(got) == dumps(grow(x, y, SHALLOW))
        assert set(table.nodes) == set(wrong)
        assert not any(table.nodes[p] is wrong[p] for p in paths)
