import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np
import pytest

from tensortree._rng import make_rng
from tensortree.ensemble import BoostedModel
from tensortree.leaf_models import LeafModelSpec
from tensortree.serialize import model_to_dict
from tensortree.tree import GrowConfig, grow


@pytest.fixture(params=["coords", "threshold", "leaf_n", "feature_shape", "top_level_list",
                        "threshold_nan", "leaf_mean_inf", "coords_float", "coords_bool",
                        "leaf_feature_shape", "threshold_str", "leaf_mean_bool", "fell_back_str",
                        "factor_bool_among_floats", "feature_shape_one_mode",
                        "feature_shape_four_modes", "feature_shape_zero_extent", "leaf_n_negative",
                        "leaf_n_samples_zero", "boosting_no_trees"])
def malformed_tree_doc(request):
    """A valid one-split tree document with one value made malformed."""
    x = make_rng(0).uniform(size=(30, 2, 2))
    cp = request.param == "factor_bool_among_floats"
    leaf = LeafModelSpec(kind="cp", rank=1) if cp else LeafModelSpec()
    doc = model_to_dict(grow(x, (x[:, 0, 0] > 0.5).astype(float), GrowConfig(max_depth=1, leaf=leaf)))
    node = doc["node"]
    if request.param == "boosting_no_trees":
        # valid in memory, but no fit gives it
        return model_to_dict(BoostedModel(0.5, 0.1, []))
    if request.param in ("coords", "threshold"):
        node["rule"][request.param] = None
    elif request.param == "threshold_nan":
        node["rule"]["threshold"] = float("nan")
    elif request.param == "leaf_mean_inf":
        node["left"]["leaf"]["model"]["mean"] = float("inf")
    elif request.param == "threshold_str":
        node["rule"]["threshold"] = "0.5"
    elif request.param == "leaf_mean_bool":
        node["left"]["leaf"]["model"]["mean"] = True
    elif request.param == "coords_float":
        node["rule"]["coords"] = [0.7, 0]
    elif request.param == "coords_bool":
        node["rule"]["coords"] = [True, 0]
    elif request.param == "leaf_feature_shape":
        node["left"]["leaf"]["model"]["feature_shape"] = [2, 3]
    elif request.param == "leaf_n":
        node["left"]["leaf"]["n"] = None
    elif request.param == "fell_back_str":
        node["left"]["leaf"]["model"]["fell_back"] = "no"
    elif request.param == "factor_bool_among_floats":
        factor = node["left"]["leaf"]["model"]["coefficient"]["factors"][0]
        assert all(type(v) is float for row in factor for v in row)
        factor[0][0] = True
    elif request.param == "feature_shape":
        doc["feature_shape"] = 4
    elif request.param in ("feature_shape_one_mode", "feature_shape_four_modes"):
        # rule and leaves agree with the shape, which no fit can have
        shape = [2] if request.param == "feature_shape_one_mode" else [2, 2, 1, 1]
        node["rule"]["coords"] = (node["rule"]["coords"] + [0, 0])[:len(shape)]
        doc["feature_shape"] = node["left"]["leaf"]["model"]["feature_shape"] = shape
        node["right"]["leaf"]["model"]["feature_shape"] = shape
    elif request.param == "feature_shape_zero_extent":
        doc["node"] = leaf = node["left"]  # a single leaf: no rule indexes the shape
        doc["feature_shape"] = leaf["leaf"]["model"]["feature_shape"] = [0, 2]
    elif request.param == "leaf_n_negative":
        node["left"]["leaf"]["n"] = -5
    elif request.param == "leaf_n_samples_zero":
        node["left"]["leaf"]["model"]["n_samples"] = 0
    else:
        return [doc]
    return doc
