"""JSON persistence for trees, ensembles and tensor-output models.

Models serialize to plain JSON documents: nodes as nested
``{"rule": ..., "left": ..., "right": ...}`` objects, leaves as fitted
model records, decompositions as ``weights``/``factors`` (and ``core``)
nested arrays.  Floats are written with Python's shortest round-trip
representation, so a load/save cycle reproduces predictions bit for bit,
and documents are dumped with sorted keys and fixed separators so equal
models produce byte-identical files.

Restored trees carry no training data: they predict and apply, but
cannot be pruned further.  Loading raises ``ValueError`` for a malformed
document: not a JSON object, another format version, split coordinates
outside the feature shape, a leaf feature shape that is not its tree's,
a leaf kind other than ``mean``/``cp``/``tucker`` or a coefficient of
another type than its leaf's kind, a tensor-output ``approach`` other
than ``entrywise``/``lowrank`` or ``decomp`` other than ``cp``/``tucker``,
a factor, CP weight vector or Tucker core whose shape does not fit the
leaf's feature shape (or the output shape, and one ensemble per output
entry or observation-mode component), a feature shape of other than 2
or 3 extents or an output shape of other than 1 or 2, an extent or leaf
row count below 1, a boosting model with no tree, a non-finite number,
a non-integer shape, count or split coordinate, or a missing key or
wrongly typed value.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from ._checks import _check_bool, _check_choice, _check_coords, _check_int, _check_number, _check_shape, _finite_array
from .decomposition import CPDecomposition, TuckerDecomposition
from .ensemble import BoostedModel, ForestModel
from .leaf_models import FittedLeafModel
from .tensor_output import TensorOutputModel
from .tree import LeafNode, SplitNode, TensorTree
from .splitting import SplitRule

FORMAT = "tensortree-model"
VERSION = 1


def _decomp_to_dict(d) -> dict:
    if isinstance(d, CPDecomposition):
        return {
            "type": "cp",
            "weights": d.weights.tolist(),
            "factors": [f.tolist() for f in d.factors],
        }
    if isinstance(d, TuckerDecomposition):
        return {
            "type": "tucker",
            "core": d.core.tolist(),
            "factors": [f.tolist() for f in d.factors],
        }
    raise TypeError(f"not a decomposition: {type(d).__name__}")


def _factors(docs, shape: tuple[int, ...], ranks: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Finite factor matrices, one ``(extent, rank)`` matrix per mode of ``shape``."""
    factors = tuple(_finite_array(f) for f in docs)
    want = tuple(zip(shape, ranks))
    if len(ranks) != len(shape) or tuple(f.shape for f in factors) != want:
        raise ValueError(f"factor shapes {[f.shape for f in factors]} do not fit "
                         f"shape {shape} at ranks {ranks}")
    return factors


def _cp_weights(values) -> np.ndarray:
    weights = _finite_array(values)
    if weights.ndim != 1:
        raise ValueError(f"CP weights must be a vector, got shape {weights.shape}")
    return weights


def _decomp_from_dict(doc: dict, shape: tuple[int, ...]):
    """A leaf coefficient, its arrays checked against the feature ``shape``."""
    if doc["type"] == "cp":
        weights = _cp_weights(doc["weights"])
        factors = _factors(doc["factors"], shape, (weights.size,) * len(shape))
        return CPDecomposition(weights=weights, factors=factors)
    if doc["type"] == "tucker":
        core = _finite_array(doc["core"])
        return TuckerDecomposition(core=core, factors=_factors(doc["factors"], shape, core.shape))
    raise ValueError(f"unknown decomposition type {doc['type']!r}")


def _leaf_model_to_dict(m: FittedLeafModel) -> dict:
    doc: dict[str, Any] = {
        "kind": m.kind,
        "feature_shape": list(m.feature_shape),
        "n_samples": m.n_samples,
        "fell_back": m.fell_back,
    }
    if m.kind == "mean":
        doc["mean"] = m.mean
    else:
        doc["intercept"] = m.intercept
        doc["coefficient"] = _decomp_to_dict(m.coefficient)
    return doc


def _leaf_model_from_dict(doc: dict, feature_shape: tuple[int, ...]) -> FittedLeafModel:
    # a leaf is fitted on its tree's features, so it keeps the tree's checked shape
    if tuple(doc["feature_shape"]) != feature_shape:
        raise ValueError(f"leaf feature shape {doc['feature_shape']!r} is not the tree's")
    kind = doc["kind"]
    _check_choice(kind, ("mean", "cp", "tucker"), "leaf kind")
    model = FittedLeafModel(
        kind=kind,
        feature_shape=feature_shape,
        n_samples=_check_int(doc["n_samples"], "n_samples", 1),
        fell_back=_check_bool(doc.get("fell_back", False), "fell_back"),
    )
    if kind == "mean":
        model.mean = _check_number(doc["mean"], "mean")
    else:
        coefficient = doc["coefficient"]
        if coefficient["type"] != kind:
            raise ValueError(f"{kind} leaf holds a {coefficient['type']!r} coefficient")
        model.intercept = _check_number(doc["intercept"], "intercept")
        model.coefficient = _decomp_from_dict(coefficient, feature_shape)
    return model


def _node_to_dict(node) -> dict:
    if isinstance(node, LeafNode):
        return {
            "leaf": {
                "model": _leaf_model_to_dict(node.model),
                "n": node.n,
                "response_variance": node.response_variance,
                "model_mse": node.model_mse,
            }
        }
    return {
        "rule": {"coords": list(node.rule.coords), "threshold": node.rule.threshold},
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(doc: dict, feature_shape: tuple[int, ...]):
    if "leaf" in doc:
        leaf = doc["leaf"]
        return LeafNode(
            model=_leaf_model_from_dict(leaf["model"], feature_shape),
            indices=None,
            n=_check_int(leaf["n"], "n", 1),
            response_variance=_check_number(leaf["response_variance"], "response_variance"),
            model_mse=_check_number(leaf["model_mse"], "model_mse"),
        )
    rule = SplitRule(
        coords=_check_coords(doc["rule"]["coords"], feature_shape),
        threshold=_check_number(doc["rule"]["threshold"], "threshold"),
    )
    return SplitNode(
        rule=rule,
        left=_node_from_dict(doc["left"], feature_shape),
        right=_node_from_dict(doc["right"], feature_shape),
    )


def _tree_to_dict(t: TensorTree) -> dict:
    return {
        "kind": "tree",
        "feature_shape": list(t.feature_shape),
        "node": _node_to_dict(t.root),
    }


def _tree_from_dict(doc: dict) -> TensorTree:
    feature_shape = _check_shape(doc["feature_shape"], "feature_shape", (2, 3))
    return TensorTree(
        root=_node_from_dict(doc["node"], feature_shape),
        feature_shape=feature_shape,
        config=None,
    )


def _boosting_to_dict(m: BoostedModel) -> dict:
    return {
        "kind": "boosting",
        "f0": m.base_value,
        "eta": m.learning_rate,
        "trees": [_tree_to_dict(t) for t in m.trees],
    }


def _boosting_from_dict(doc: dict) -> BoostedModel:
    trees = [_tree_from_dict(t) for t in doc["trees"]]
    if not trees:
        raise ValueError("boosting needs at least one tree")
    return BoostedModel(_check_number(doc["f0"], "f0"), _check_number(doc["eta"], "eta"), trees)


def _forest_to_dict(m: ForestModel) -> dict:
    return {"kind": "forest", "trees": [_tree_to_dict(t) for t in m.trees]}


def _forest_from_dict(doc: dict) -> ForestModel:
    return ForestModel([_tree_from_dict(t) for t in doc["trees"]])


def _output_to_dict(m: TensorOutputModel) -> dict:
    doc: dict[str, Any] = {
        "kind": "tensor_output",
        "approach": m.kind,
        "output_shape": list(m.output_shape),
        "ensembles": [_boosting_to_dict(e) for e in m.ensembles],
    }
    if m.kind == "lowrank":
        doc["decomp"] = m.decomp_kind
        doc["output_factors"] = [f.tolist() for f in m.output_factors]
        if m.decomp_kind == "cp":
            doc["weights"] = m.weights.tolist()
        else:
            doc["core"] = m.core.tolist()
    return doc


def _output_from_dict(doc: dict) -> TensorOutputModel:
    _check_choice(doc["approach"], ("entrywise", "lowrank"), "tensor-output approach")
    if doc["approach"] == "lowrank":
        _check_choice(doc["decomp"], ("cp", "tucker"), "output decomposition")
    shape = _check_shape(doc["output_shape"], "output_shape", (1, 2))
    ensembles = [_boosting_from_dict(e) for e in doc["ensembles"]]
    if doc["approach"] == "entrywise":
        if len(ensembles) != math.prod(shape):
            raise ValueError(f"{len(ensembles)} ensembles for output shape {shape}")
        return TensorOutputModel("entrywise", shape, ensembles)
    # one ensemble per observation-mode component
    weights = core = None
    if doc["decomp"] == "cp":
        weights = _cp_weights(doc["weights"])
        ranks = (weights.size,) * (len(shape) + 1)
    else:
        core = _finite_array(doc["core"])
        ranks = core.shape
    if ranks[:1] != (len(ensembles),):
        raise ValueError(f"{len(ensembles)} ensembles for output ranks {ranks}")
    return TensorOutputModel(
        "lowrank",
        shape,
        ensembles,
        decomp_kind=doc["decomp"],
        weights=weights,
        core=core,
        output_factors=_factors(doc["output_factors"], shape, ranks[1:]),
    )


def model_to_dict(model) -> dict:
    """Serializable document for any fitted model type."""
    if isinstance(model, TensorTree):
        payload = _tree_to_dict(model)
    elif isinstance(model, BoostedModel):
        payload = _boosting_to_dict(model)
    elif isinstance(model, ForestModel):
        payload = _forest_to_dict(model)
    elif isinstance(model, TensorOutputModel):
        payload = _output_to_dict(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return {"format": FORMAT, "version": VERSION, **payload}


def model_from_dict(doc: dict):
    """Inverse of :func:`model_to_dict`; a malformed document raises ``ValueError``."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError("not a tensortree model document")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported model document version {doc.get('version')!r}; "
                         f"expected {VERSION}")
    kind = doc.get("kind")
    try:
        if kind == "tree":
            return _tree_from_dict(doc)
        if kind == "boosting":
            return _boosting_from_dict(doc)
        if kind == "forest":
            return _forest_from_dict(doc)
        if kind == "tensor_output":
            return _output_from_dict(doc)
    except (KeyError, TypeError, AttributeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed model document: {type(exc).__name__}: {exc}") from None
    raise ValueError(f"unknown model kind {kind!r}")


def dumps(model) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str):
    return model_from_dict(json.loads(text))


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(model))


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
