"""Golden corpus: SHA-256 digests of small fits, pinned across commits.

Each case fits one model on a small generated input and digests two
things: the ``dumps`` bytes of the model and the float64 bytes of its
predictions on a fixed batch.  ``digests.json`` beside this file holds
the digests of every case, with the environment they were recorded in;
``test_golden.py`` recomputes them and compares.

The cases cover the sort paths of the split search (plain inputs, inputs
with ties between distinct rows, and columns holding both -0.0 and 0.0)
through single trees under each search strategy and value mode, forests
with and without bootstrap, boosting with and without resampling and
pruning, ``sse`` trees with CP and Tucker leaves, trees pruned under each
quality, ``lre`` and ``lae`` trees, and entrywise and low-rank tensor
outputs on one and two worker processes, plus ALS fits on 2-, 3- and
4-mode tensors.

Re-record only from a commit whose models are known to be right, and
name each re-record in ``CHANGES.md``::

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from tensortree.data import SyntheticSpec, generate, piecewise_target
from tensortree.decomposition import AlsConfig, cp_als, tucker_als
from tensortree.ensemble import BoostingConfig, ForestConfig, fit_boosting, fit_forest
from tensortree.leaf_models import LeafModelSpec
from tensortree.serialize import dumps
from tensortree.splitting import SearchStrategy, SplitCriterion
from tensortree.tensor_output import OutputConfig, fit_entrywise, fit_lowrank
from tensortree.tree import GrowConfig, PruneConfig, grow, prune

DIGESTS = Path(__file__).with_name("digests.json")

ALS = AlsConfig(max_iterations=5, rel_tolerance=1e-7, seed=0)
TREE = GrowConfig(max_depth=4, min_samples_leaf=3)
SHALLOW = GrowConfig(max_depth=3, min_samples_leaf=3)


def _variant(x: np.ndarray, kind: str) -> np.ndarray:
    """``x`` as is, rounded so that distinct rows tie, or with a column of -0.0, 0.0 and 1.0."""
    x = x.copy()
    if kind == "tied":
        x = np.round(x * 16) / 16
    elif kind == "zeros":
        col = (slice(None),) + (0,) * (x.ndim - 1)
        x[col] = np.where(x[col] < 0.3, -0.0, np.where(x[col] < 0.6, 0.0, 1.0))
    return x


def _prune_fn(kind="plain", n=300, seed=1):
    """``prune_fn`` inputs with a smooth response plus a step, which trees split many times."""
    x, y = generate(SyntheticSpec(generator="prune_fn", n=n, seed=seed))
    noise = y - piecewise_target(x)
    x = _variant(x, kind)
    return x, 2 * np.sin(2 * x[:, 0, 1, 0]) + 2 * (x[:, 0, 0, 0] > 0.6) + 0.1 * noise


def _fig5(kind="plain", n=48, seed=2):
    x, y = generate(SyntheticSpec(generator="fig5_interaction", n=n, noise_sigma=0.1, seed=seed))
    return _variant(x, kind), y


def _outputs(kind="plain", n=120, seed=3):
    x, y = generate(SyntheticSpec(generator="table2_nonlinear", n=n, seed=seed))
    return _variant(x, kind), y.reshape(n, 2, 3)


def _tree(config, prune_config=None):
    def fit(x, y):
        tree = grow(x, y, config)
        return tree if prune_config is None else prune(tree, prune_config)
    return fit


def _forest(bootstrap, tree=TREE, n_trees=4):
    return lambda x, y: fit_forest(x, y, ForestConfig(
        n_trees=n_trees, bootstrap=bootstrap, tau=0.5, tree=tree, seed=5))


def _boosting(p_resample, prune_config=None, tree=SHALLOW, stages=5):
    return lambda x, y: fit_boosting(x, y, BoostingConfig(
        n_estimators=stages, learning_rate=0.3, p_resample=p_resample, tree=tree,
        prune=prune_config, seed=6))


def _output(approach, n_threads, p_resample=0.0, decomp="cp"):
    fit = fit_entrywise if approach == "entrywise" else fit_lowrank
    boosting = BoostingConfig(n_estimators=3, learning_rate=0.5, p_resample=p_resample,
                              tree=GrowConfig(max_depth=2, min_samples_leaf=3), seed=7)
    rank = None if approach == "entrywise" else 2
    config = OutputConfig(approach=approach, decomp=decomp, rank=rank, boosting=boosting, als=ALS)
    return lambda x, y: fit(x, y, config, n_threads=n_threads)


def _lre(kind, strategy=SearchStrategy()):
    return GrowConfig(max_depth=2, min_samples_leaf=8, strategy=strategy,
                      criterion=SplitCriterion(kind="lre", split_rank=1, decomp=kind, als=ALS),
                      leaf=LeafModelSpec(kind=kind, rank=1, als=ALS))


def _lae(kind, value_mode, strategy=SearchStrategy()):
    return GrowConfig(max_depth=2, min_samples_leaf=5, strategy=strategy,
                      criterion=SplitCriterion(kind="lae", split_rank=2, decomp=kind,
                                               value_mode=value_mode, als=ALS))


def _low_rank_leaves(kind):
    return GrowConfig(max_depth=2, min_samples_leaf=8, leaf=LeafModelSpec(kind=kind, rank=1, als=ALS))


MEAN_MODE = replace(TREE, criterion=SplitCriterion(value_mode="mean"))
PRUNE = PruneConfig(alpha=0.5)
PRUNE_TENSOR_LOSS = PruneConfig(alpha=5.0, quality="tensor_loss")
PRUNE_LAE = PruneConfig(alpha=1.0, quality="lae", lae_rank=1, als=ALS)

# name -> (input generator, input variant, fit of a model on that input)
CASES = {
    "tree_exhaustive_plain": (_prune_fn, "plain", _tree(TREE)),
    "tree_exhaustive_tied": (_prune_fn, "tied", _tree(TREE)),
    "tree_exhaustive_zeros": (_prune_fn, "zeros", _tree(TREE)),
    "tree_leverage_plain": (_prune_fn, "plain", _tree(
        replace(TREE, strategy=SearchStrategy("leverage", tau=0.5, seed=3)))),
    "tree_leverage_tied": (_prune_fn, "tied", _tree(
        replace(TREE, strategy=SearchStrategy("leverage", tau=1.0)))),
    "tree_bb_plain": (_prune_fn, "plain", _tree(replace(TREE, strategy=SearchStrategy("bb", xi=0)))),
    "tree_bb_xi1_tied": (_prune_fn, "tied", _tree(replace(TREE, strategy=SearchStrategy("bb", xi=1)))),
    "tree_mean_mode_plain": (_prune_fn, "plain", _tree(MEAN_MODE)),
    "tree_mean_mode_zeros": (_prune_fn, "zeros", _tree(MEAN_MODE)),
    "tree_pruned_variance": (_prune_fn, "tied", _tree(TREE, PRUNE)),
    "tree_pruned_tensor_loss": (_prune_fn, "plain", _tree(_low_rank_leaves("cp"), PRUNE_TENSOR_LOSS)),
    "tree_pruned_lae": (_prune_fn, "tied", _tree(SHALLOW, PRUNE_LAE)),
    "tree_sse_cp_leaves": (_prune_fn, "plain", _tree(_low_rank_leaves("cp"))),
    "tree_sse_tucker_leaves": (_prune_fn, "zeros", _tree(_low_rank_leaves("tucker"))),
    "forest_bootstrap_plain": (_prune_fn, "plain", _forest(True)),
    "forest_bootstrap_tied": (_prune_fn, "tied", _forest(True)),
    "forest_bootstrap_zeros": (_prune_fn, "zeros", _forest(True)),
    "forest_plain": (_prune_fn, "plain", _forest(False)),
    "forest_tied": (_prune_fn, "tied", _forest(False)),
    "boosting_plain": (_prune_fn, "plain", _boosting(0.0)),
    "boosting_tied": (_prune_fn, "tied", _boosting(0.0)),
    "boosting_resampled_plain": (_prune_fn, "plain", _boosting(0.6)),
    "boosting_resampled_zeros": (_prune_fn, "zeros", _boosting(0.6)),
    "boosting_pruned": (_prune_fn, "zeros", _boosting(0.0, PRUNE)),
    "boosting_resampled_pruned": (_prune_fn, "tied", _boosting(0.6, PRUNE)),
    "lre_tree_cp": (_fig5, "plain", _tree(_lre("cp"))),
    "lre_tree_tucker_bb_tied": (_fig5, "tied", _tree(_lre("tucker", SearchStrategy("bb", xi=0)))),
    "lre_forest_bootstrap": (_fig5, "zeros", _forest(True, _lre("cp"), n_trees=2)),
    "lre_boosting_resampled": (_fig5, "tied", _boosting(0.6, tree=_lre("cp"), stages=2)),
    "lae_tree_cp_observed": (_fig5, "tied", _tree(_lae("cp", "observed"))),
    "lae_tree_tucker_mean_leverage": (_fig5, "plain", _tree(
        _lae("tucker", "mean", SearchStrategy("leverage", tau=0.5, seed=1)))),
    "entrywise_1_worker": (_outputs, "plain", _output("entrywise", 1)),
    "entrywise_2_workers_tied": (_outputs, "tied", _output("entrywise", 2)),
    "entrywise_resampled_2_workers": (_outputs, "zeros", _output("entrywise", 2, p_resample=0.7)),
    "lowrank_cp_1_worker": (_outputs, "plain", _output("lowrank", 1)),
    "lowrank_tucker_resampled_2_workers": (_outputs, "plain", _output(
        "lowrank", 2, p_resample=0.7, decomp="tucker")),
}

# name -> (shape of the uniform tensor, fit of a decomposition to it).  A CP
# rank above the mode-0 extent takes a uniform draw for mode 0 before mode 1
# draws its start.
DECOMPOSITIONS = {
    "cp_als_rank_above_mode0": ((3, 3, 5), lambda t: cp_als(t, 4, ALS)[0]),
    "tucker_als": ((3, 3, 5), lambda t: tucker_als(t, (2, 2, 3), ALS)[0]),
    "cp_als_2_modes": ((4, 6), lambda t: cp_als(t, 2, ALS)[0]),
    "tucker_als_2_modes": ((4, 6), lambda t: tucker_als(t, (2, 3), ALS)[0]),
    "cp_als_4_modes": ((3, 2, 4, 3), lambda t: cp_als(t, 3, ALS)[0]),
    "tucker_als_4_modes": ((3, 2, 4, 3), lambda t: tucker_als(t, (2, 2, 3, 2), ALS)[0]),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def case_digest(name: str) -> dict[str, str]:
    """The ``model`` (dumps) and ``predictions`` digests of case ``name``."""
    if name in DECOMPOSITIONS:
        shape, fit = DECOMPOSITIONS[name]
        decomp = fit(np.random.default_rng(13).uniform(size=shape))
        arrays = [getattr(decomp, "weights", None), getattr(decomp, "core", None), *decomp.factors]
        return {"model": _sha(b"".join(a.tobytes() for a in arrays if a is not None)),
                "predictions": _sha(decomp.to_tensor().tobytes())}
    data, kind, fit = CASES[name]
    x, y = data(kind)
    model = fit(x, y)
    batch = np.random.default_rng(11).uniform(-0.2, 1.2, size=(50,) + x.shape[1:])
    return {"model": _sha(dumps(model).encode("utf-8")),
            "predictions": _sha(np.ascontiguousarray(model.predict(batch)).tobytes())}


def environment() -> dict[str, str]:
    """What the digests depend on besides the code: numpy, its BLAS, Python and the machine."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "python": platform.python_version(),
            "machine": platform.machine()}


def names() -> list[str]:
    return list(CASES) + list(DECOMPOSITIONS)


def main() -> int:
    doc = {"environment": environment(), "cases": {name: case_digest(name) for name in names()}}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc['cases'])} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
