"""Seeded single mutations of small model documents.

Each mutation replaces, deletes, scales or adds one entry anywhere in a
document.  Loading the result must raise ``ValueError``; a document that
loads must hold only shapes and counts that a fit can give, and predict
finite values or raise ``ValueError``.  No other exception, and no
non-finite prediction, may escape.  An ensemble document emptied of its
trees, which no fit gives, is rejected.
"""

import copy
from collections import Counter
from dataclasses import replace
from functools import reduce
from operator import getitem

import numpy as np
import pytest

from tensortree._rng import make_rng
from tensortree.ensemble import BoostingConfig, ForestConfig, fit_boosting, fit_forest
from tensortree.leaf_models import LeafModelSpec
from tensortree.serialize import model_from_dict, model_to_dict
from tensortree.tensor_output import OutputConfig, fit_entrywise, fit_lowrank
from tensortree.tree import GrowConfig, grow

MUTATIONS = 300

REPLACEMENTS = [None, True, False, "cp", "mean", "tucker", 0, -1, 1, 2, 7, 0.5, -0.0,
                1e308, -1e308, float("nan"), float("inf"), [], {}, [0], [[1.0]], [1.0, 2.0]]


def documents():
    rng = make_rng(21)
    x = rng.uniform(-1.0, 1.0, size=(30, 2, 3))
    y = np.where(x[:, 0, 0] > 0, 1.0, -1.0) + 0.5 * x[:, 1, 2]
    tree = GrowConfig(max_depth=1, min_samples_leaf=5)
    boost = BoostingConfig(n_estimators=2, tree=tree)
    outputs = np.stack([y, x[:, 0, 1]], axis=1)
    models = {
        "tree-cp": grow(x, y, replace(tree, leaf=LeafModelSpec(kind="cp", rank=1))),
        "tree-tucker": grow(x, y, replace(tree, leaf=LeafModelSpec(kind="tucker", rank=1))),
        "boosting": fit_boosting(x, y, boost),
        "forest": fit_forest(x, y, ForestConfig(n_trees=2, tree=tree)),
        "entrywise": fit_entrywise(x, outputs, OutputConfig(approach="entrywise", boosting=boost)),
        "lowrank": fit_lowrank(x, outputs, OutputConfig(approach="lowrank", rank=1, boosting=boost)),
    }
    return x, {name: model_to_dict(model) for name, model in models.items()}


def addresses(doc, prefix=()):
    """The key path of every entry in a JSON document, containers included."""
    out = []
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        out.append(prefix + (key,))
        if isinstance(value, (dict, list)):
            out += addresses(value, prefix + (key,))
    return out


def mutate(doc, rng):
    """A copy of ``doc`` with one entry replaced, deleted, scaled or added."""
    doc = copy.deepcopy(doc)
    every = addresses(doc)
    path = every[int(rng.integers(len(every)))]
    parent, key = reduce(getitem, path[:-1], doc), path[-1]
    value = parent[key]
    op = int(rng.integers(4))
    if op == 0:
        parent[key] = copy.deepcopy(REPLACEMENTS[int(rng.integers(len(REPLACEMENTS)))])
    elif op == 1:
        del parent[key]
    elif op == 2 and type(value) is float:
        parent[key] = value * [-1.0, 10.0, 1e300, 1e-300][int(rng.integers(4))]
    elif op == 2 and type(value) is int:
        parent[key] = value + [-1, 1, 5][int(rng.integers(3))]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))
    else:
        parent["unexpected"] = copy.deepcopy(value)
    return doc


def assert_fit_shapes(model):
    """2 or 3 feature extents, 1 or 2 output extents, every extent, tree count and leaf row count at least 1."""
    output_shape = getattr(model, "output_shape", (1,))
    assert 1 <= len(output_shape) <= 2 and min(output_shape) >= 1
    for ensemble in getattr(model, "ensembles", [model]):
        trees = getattr(ensemble, "trees", [ensemble])
        assert len(trees) >= 1
        for tree in trees:
            assert 2 <= len(tree.feature_shape) <= 3 and min(tree.feature_shape) >= 1
            assert all(leaf.n >= 1 and leaf.model.n_samples >= 1 for leaf in tree.leaves())


def outcome(doc, x):
    try:
        model = model_from_dict(doc)
    except ValueError:
        return "rejected"
    assert_fit_shapes(model)
    try:
        prediction = model.predict(x)
    except ValueError:
        return "refused"
    assert np.isfinite(prediction).all()
    return "predicted"


X, DOCS = documents()


@pytest.mark.parametrize("name", list(DOCS))
def test_single_mutations_load_and_predict_or_raise_value_error(name):
    rng = make_rng(7)
    seen = Counter()
    for i in range(MUTATIONS):
        doc = mutate(DOCS[name], rng)
        try:
            seen[outcome(doc, X)] += 1
        except Exception as exc:  # report the mutation that broke the contract
            raise AssertionError(f"mutation {i} of {name}: {type(exc).__name__}: {exc}") from exc
    # the mutations reach both sides of the contract
    assert seen["rejected"] > 0 and seen["predicted"] > 0
    assert outcome(copy.deepcopy(DOCS[name]), X) == "predicted"


@pytest.mark.parametrize("name", ["boosting", "forest", "entrywise", "lowrank"])
def test_ensembles_emptied_of_trees_are_rejected(name):
    # an in-memory BoostedModel may have no trees, but no fit gives one
    doc = copy.deepcopy(DOCS[name])
    for ensemble in doc.get("ensembles", [doc]):
        ensemble["trees"] = []
    assert outcome(doc, X) == "rejected"
