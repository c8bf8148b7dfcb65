"""Regression trees, boosting and forests for tensor-valued inputs.

The package fits scalar-on-tensor regression trees whose splits act on
single feature coordinates of a stacked input tensor, with mean or
low-rank CP/Tucker regressions at the leaves, complexity-based pruning,
gradient-boosted and random-forest ensembles, and two schemes
(entrywise and low-rank) that lift the scalar machinery to
tensor-on-tensor regression.
"""

from .decomposition import (
    AlsConfig,
    AlsInfo,
    CPDecomposition,
    TuckerDecomposition,
    approximation_error,
    cp_als,
    tucker_als,
)
from .data import (
    GENERATORS,
    Metrics,
    SyntheticSpec,
    evaluate,
    generate,
    train_test_split,
)
from .ensemble import (
    BoostedModel,
    BoostingConfig,
    ForestConfig,
    ForestModel,
    fit_boosting,
    fit_forest,
)
from .leaf_models import (
    FittedLeafModel,
    LeafModelSpec,
    contract,
    fit_leaf,
    min_viable_samples,
    predict_leaf,
)
from .serialize import dumps, load_model, loads, model_from_dict, model_to_dict, save_model
from .splitting import (
    SearchStrategy,
    SplitCriterion,
    SplitEvaluation,
    SplitRule,
    candidate_thresholds,
    evaluate_split,
    find_best_split,
    node_criterion_value,
    split_gain,
    variance_matrix,
)
from .tensor_ops import (
    fold,
    frobenius_norm,
    khatri_rao,
    mode_product,
    outer,
    unfold,
)
from .tensor_output import (
    OutputConfig,
    TensorOutputModel,
    fit_entrywise,
    fit_lowrank,
    predict_tensor,
)
from .tree import (
    GrowConfig,
    PruneConfig,
    TensorTree,
    complexity,
    grow,
    prune,
)

__version__ = "0.1.0"
