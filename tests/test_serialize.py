"""Model JSON round-trips: exact predictions and canonical bytes."""

import numpy as np
import pytest

from tensortree._rng import make_rng
from tensortree.ensemble import BoostingConfig, ForestConfig, fit_boosting, fit_forest
from tensortree.leaf_models import LeafModelSpec
from tensortree.serialize import dumps, loads, model_from_dict, model_to_dict
from tensortree.splitting import SplitCriterion
from tensortree.tensor_output import OutputConfig, fit_entrywise, fit_lowrank, predict_tensor
from tensortree.tree import GrowConfig, grow


def tree_config(leaf):
    return GrowConfig(max_depth=2, min_samples_leaf=5, criterion=SplitCriterion(kind="sse"), leaf=leaf)


def sample_problem(seed, n=80):
    rng = make_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 3, 3))
    y = np.where(x[:, 0, 0] > 0, 2.0, -1.0) + 0.5 * x[:, 1, 2] + rng.normal(0, 0.1, n)
    return x, y


@pytest.mark.parametrize(
    "leaf",
    [
        LeafModelSpec(kind="mean"),
        LeafModelSpec(kind="cp", rank=2),
        LeafModelSpec(kind="tucker", rank=2),
    ],
    ids=["mean", "cp", "tucker"],
)
def test_tree_roundtrip_exact_predictions(leaf):
    x, y = sample_problem(1)
    tree = grow(x, y, tree_config(leaf))
    restored = loads(dumps(tree))
    assert np.array_equal(restored.predict(x), tree.predict(x))
    assert np.array_equal(restored.apply(x), tree.apply(x))


def test_boosting_roundtrip(include=True):
    x, y = sample_problem(2)
    model = fit_boosting(x, y, BoostingConfig(n_estimators=3, tree=tree_config(LeafModelSpec(kind="mean"))))
    restored = loads(dumps(model))
    assert np.array_equal(restored.predict(x), model.predict(x))
    assert restored.base_value == model.base_value
    assert restored.learning_rate == model.learning_rate


def test_forest_roundtrip():
    x, y = sample_problem(3)
    model = fit_forest(x, y, ForestConfig(n_trees=3, tree=tree_config(LeafModelSpec(kind="mean")), seed=1))
    restored = loads(dumps(model))
    assert np.array_equal(restored.predict(x), model.predict(x))


@pytest.mark.parametrize("approach,decomp", [("entrywise", "cp"), ("lowrank", "cp"), ("lowrank", "tucker")])
def test_tensor_output_roundtrip(approach, decomp):
    rng = make_rng(4)
    x = rng.uniform(size=(50, 2, 2))
    y = rng.normal(size=(50, 3))
    boost = BoostingConfig(n_estimators=2, tree=tree_config(LeafModelSpec(kind="mean")))
    cfg = OutputConfig(approach=approach, decomp=decomp, rank=2, boosting=boost)
    fit = fit_entrywise if approach == "entrywise" else fit_lowrank
    model = fit(x, y, cfg)
    restored = loads(dumps(model))
    assert np.array_equal(predict_tensor(restored, x), predict_tensor(model, x))


def test_canonical_bytes_for_equal_models():
    x, y = sample_problem(5)
    cfg = tree_config(LeafModelSpec(kind="cp", rank=1))
    assert dumps(grow(x, y, cfg)) == dumps(grow(x, y, cfg))


def test_double_roundtrip_is_stable():
    x, y = sample_problem(6)
    tree = grow(x, y, tree_config(LeafModelSpec(kind="mean")))
    once = dumps(tree)
    assert dumps(loads(once)) == once


def test_rejects_foreign_documents():
    with pytest.raises(ValueError):
        model_from_dict({"format": "something-else"})
    with pytest.raises(TypeError):
        model_to_dict(42)


def test_rejects_other_versions():
    x, y = sample_problem(7)
    doc = model_to_dict(grow(x, y, tree_config(LeafModelSpec(kind="mean"))))
    for version in (99, 0, None):
        with pytest.raises(ValueError, match="version"):
            model_from_dict({**doc, "version": version})


@pytest.mark.parametrize("coords", [[9, 9], [9, 9, 9], [0], [-1, 0]])
def test_rejects_rule_coords_outside_feature_shape(coords):
    x, y = sample_problem(8)
    doc = model_to_dict(grow(x, y, tree_config(LeafModelSpec(kind="mean"))))
    assert "rule" in doc["node"]
    doc["node"]["left"] = {**doc["node"], "rule": {**doc["node"]["rule"], "coords": coords}}
    with pytest.raises(ValueError, match="coords"):
        model_from_dict(doc)


def test_malformed_document_raises_value_error(malformed_tree_doc):
    with pytest.raises(ValueError):
        model_from_dict(malformed_tree_doc)


def _first_leaf_model(node):
    while "leaf" not in node:
        node = node["left"]
    return node["leaf"]["model"]


@pytest.mark.parametrize("leaf, kind", [
    ("mean", "banana"), ("cp", "banana"), ("cp", "tucker"), ("tucker", "cp"), ("tucker", None),
])
def test_rejects_unknown_or_mismatched_leaf_kind(leaf, kind):
    x, y = sample_problem(9)
    rank = None if leaf == "mean" else 1
    doc = model_to_dict(grow(x, y, tree_config(LeafModelSpec(kind=leaf, rank=rank))))
    _first_leaf_model(doc["node"])["kind"] = kind
    with pytest.raises(ValueError, match="leaf"):
        model_from_dict(doc)


@pytest.mark.parametrize("approach, key, value", [
    ("entrywise", "approach", "banana"), ("lowrank", "approach", "banana"),
    ("lowrank", "decomp", "banana"), ("lowrank", "decomp", None),
])
def test_rejects_unknown_tensor_output_fields(approach, key, value):
    rng = make_rng(10)
    x, y = rng.uniform(size=(40, 2, 2)), rng.normal(size=(40, 3))
    boost = BoostingConfig(n_estimators=1, tree=tree_config(LeafModelSpec(kind="mean")))
    cfg = OutputConfig(approach=approach, decomp="tucker", rank=2, boosting=boost)
    doc = model_to_dict((fit_entrywise if approach == "entrywise" else fit_lowrank)(x, y, cfg))
    doc[key] = value
    with pytest.raises(ValueError, match=f"unknown .*{key}"):
        model_from_dict(doc)


def _leaf_edits():
    """(leaf kind, edit) pairs that give a leaf coefficient arrays of the wrong shape."""
    common = ["factor_scalar", "factor_transposed", "factor_missing", "factor_extra"]
    return ([("cp", e) for e in common + ["weights_matrix", "weights_short"]]
            + [("tucker", e) for e in common + ["core_ndim", "core_rank"]])


@pytest.mark.parametrize("leaf, edit", _leaf_edits())
def test_rejects_leaf_arrays_that_do_not_fit_the_feature_shape(leaf, edit):
    x, y = sample_problem(9)
    doc = model_to_dict(grow(x, y, tree_config(LeafModelSpec(kind=leaf, rank=2))))
    coef = _first_leaf_model(doc["node"])["coefficient"]
    factors = coef["factors"]
    if edit == "factor_scalar":
        factors[0] = 3
    elif edit == "factor_transposed":
        factors[0] = np.asarray(factors[0]).T.tolist()
    elif edit == "factor_missing":
        del factors[1]
    elif edit == "factor_extra":
        factors.append(factors[0])
    elif edit == "weights_matrix":
        coef["weights"] = [coef["weights"]]
    elif edit == "weights_short":
        coef["weights"] = coef["weights"][:1]
    elif edit == "core_ndim":
        coef["core"] = coef["core"][0]
    else:
        coef["core"] = [row[:1] for row in coef["core"]]
    with pytest.raises(ValueError, match="factor|weights"):
        model_from_dict(doc)


@pytest.mark.parametrize("leaf, edit", [("cp", "weights_str"), ("cp", "factor_bool"),
                                        ("tucker", "core_str")])
def test_rejects_leaf_arrays_of_non_numbers(leaf, edit):
    x, y = sample_problem(9)
    doc = model_to_dict(grow(x, y, tree_config(LeafModelSpec(kind=leaf, rank=2))))
    coef = _first_leaf_model(doc["node"])["coefficient"]
    if edit == "weights_str":
        coef["weights"] = [str(w) for w in coef["weights"]]
    elif edit == "factor_bool":
        coef["factors"][0] = [[v > 0 for v in row] for row in coef["factors"][0]]
    else:
        coef["core"] = np.asarray(coef["core"]).astype(str).tolist()
    with pytest.raises(ValueError, match="must be a number"):
        model_from_dict(doc)


def test_integral_numbers_load_as_floats():
    # a JSON integer is a number wherever a document holds one
    x, y = sample_problem(4)
    doc = model_to_dict(grow(x, y, tree_config(LeafModelSpec(kind="mean"))))
    doc["node"]["rule"]["threshold"] = 0
    _first_leaf_model(doc["node"])["mean"] = 2
    node = model_from_dict(doc).root
    assert type(node.rule.threshold) is float and node.rule.threshold == 0.0
    while not hasattr(node, "model"):
        node = node.left
    assert type(node.model.mean) is float and node.model.mean == 2.0


@pytest.mark.parametrize("approach, decomp, edit", [
    ("entrywise", "cp", "ensemble_missing"),
    ("lowrank", "cp", "ensemble_missing"), ("lowrank", "tucker", "ensemble_missing"),
    ("lowrank", "cp", "factor_scalar"), ("lowrank", "tucker", "factor_scalar"),
    ("lowrank", "cp", "factor_transposed"), ("lowrank", "cp", "weights_short"),
    ("lowrank", "tucker", "core_rank"), ("lowrank", "tucker", "core_ndim"),
])
def test_rejects_output_arrays_that_do_not_fit_the_output_shape(approach, decomp, edit):
    rng = make_rng(10)
    x, y = rng.uniform(size=(40, 2, 2)), rng.normal(size=(40, 3, 2))
    boost = BoostingConfig(n_estimators=1, tree=tree_config(LeafModelSpec(kind="mean")))
    cfg = OutputConfig(approach=approach, decomp=decomp, rank=2, boosting=boost)
    doc = model_to_dict((fit_entrywise if approach == "entrywise" else fit_lowrank)(x, y, cfg))
    if edit == "ensemble_missing":
        del doc["ensembles"][-1]
    elif edit == "factor_scalar":
        doc["output_factors"][0] = 3
    elif edit == "factor_transposed":
        doc["output_factors"][0] = np.asarray(doc["output_factors"][0]).T.tolist()
    elif edit == "weights_short":
        doc["weights"] = doc["weights"][:1]
    elif edit == "core_rank":
        doc["core"] = [[row[:1] for row in plane] for plane in doc["core"]]
    else:
        doc["core"] = doc["core"][0]
    with pytest.raises(ValueError, match="factor|ensembles"):
        model_from_dict(doc)


@pytest.mark.parametrize("shape", [[], [1, 1, 1], [1, 1, 1, 1], [1, 0]])
def test_rejects_output_shapes_no_fit_has(shape):
    rng = make_rng(11)
    x, y = rng.uniform(size=(40, 2, 2)), rng.normal(size=(40, 1))
    boost = BoostingConfig(n_estimators=1, tree=tree_config(LeafModelSpec(kind="mean")))
    doc = model_to_dict(fit_entrywise(x, y, OutputConfig(boosting=boost)))
    doc["output_shape"] = shape
    with pytest.raises(ValueError, match="output_shape"):
        model_from_dict(doc)
