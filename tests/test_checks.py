"""Every value and array rule lives in ``_checks``, and public arguments meet it.

Structural tests read each package module's syntax tree: no module but
``_checks`` defines a check, none imports one from elsewhere, and none
turns an argument into an array.  A table of bad arguments to public
functions, each of which once escaped as a ``TypeError``/``IndexError``
or passed, must now raise ``ValueError``.  A table of odd arrays (complex,
string, masked, wrong-rank and others) runs through every array argument
of the public functions, constructors and predicts: each is refused with
``ValueError`` or gives a result, with no other exception and no warning.
"""

import ast
import pathlib
import re
import warnings

import numpy as np
import pytest

from tensortree import (
    BoostingConfig,
    ForestConfig,
    GrowConfig,
    LeafModelSpec,
    OutputConfig,
    approximation_error,
    contract,
    cp_als,
    evaluate,
    fit_boosting,
    fit_entrywise,
    fit_forest,
    fit_leaf,
    fit_lowrank,
    fold,
    frobenius_norm,
    grow,
    khatri_rao,
    mode_product,
    outer,
    predict_leaf,
    predict_tensor,
    splitting,
    train_test_split,
    tucker_als,
    unfold,
    variance_matrix,
)
from tensortree._rng import make_rng
from tensortree.decomposition import AlsConfig, CPDecomposition, TuckerDecomposition
from tensortree.serialize import dumps
from tensortree.tensor_output import TensorOutputModel
from tensortree.splitting import (
    SearchStrategy,
    SplitCriterion,
    SplitRule,
    candidate_thresholds,
    evaluate_split,
    find_best_split,
    node_criterion_value,
    split_gain,
)

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "tensortree"
CHECK_NAME = re.compile(r"_is_int$|_integer|_finite|_as_tensor$|_as_matrix$|_resolve_ranks$|_check_")


def test_package_has_modules():
    assert (PACKAGE / "_checks.py").is_file() and len(list(PACKAGE.glob("*.py"))) > 10


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_checks_are_defined_and_imported_only_in_checks(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name != "_checks.py":
        defined = [node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and CHECK_NAME.match(node.name)]
        assert defined == [], f"{path.name} defines checks {defined}"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not (node.level == 1 and node.module == "_checks"):
            names = [a.name for a in node.names if CHECK_NAME.match(a.name)]
            assert names == [], f"{path.name} imports {names} from {node.module!r}"


CONVERTERS = ("array", "ascontiguousarray", "asfortranarray", "require", "astype")


def _casts(call: ast.Call) -> bool:
    """Whether ``call`` is ``np.asarray`` (in any form) or an array conversion to float64."""
    name = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", "")
    return name in ("asarray", "asanyarray") or (
        name in CONVERTERS and (any(k.arg == "dtype" for k in call.keywords) or "float64" in ast.unparse(call)))


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "_checks.py"),
                         ids=lambda p: p.name)
def test_only_checks_turns_arguments_into_arrays(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    # the CLI's writer casts the arrays it saves, which are outputs, not arguments
    writers = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_save_array"]
    exempt = {id(n) for w in writers for n in ast.walk(w)}
    casts = [f"line {n.lineno}: {ast.unparse(n)}" for n in ast.walk(tree)
             if isinstance(n, ast.Call) and id(n) not in exempt and _casts(n)]
    assert casts == [], f"{path.name} turns arguments into arrays outside _checks: {casts}"


def test_checks_imports_nothing_from_the_package():
    tree = ast.parse((PACKAGE / "_checks.py").read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level > 0]


X = make_rng(0).uniform(size=(20, 3, 3))
Y = X[:, 0, 0]
SSE = SplitCriterion()
STRATEGY = SearchStrategy()
NAN = float("nan")


def _rule(coords, threshold=0.5):
    return SplitRule(coords, threshold)


BAD_ARGUMENTS = {
    "min_child float": (lambda: find_best_split(X, Y, SSE, STRATEGY, min_child=1.5), "min_child"),
    "min_child str": (lambda: find_best_split(X, Y, SSE, STRATEGY, min_child="a"), "min_child"),
    "min_child bool": (lambda: find_best_split(X, Y, SSE, STRATEGY, min_child=True), "min_child"),
    "min_child negative": (lambda: find_best_split(X, Y, SSE, STRATEGY, min_child=-1),
                           "min_child"),
    "fraction str": (lambda: train_test_split(X, Y, fraction="0.5"), "fraction"),
    "seed float": (lambda: train_test_split(X, Y, seed=1.5), "seed"),
    **{f"{name} coords {coords}": (call, "coords")
       for coords in ((0, 0.5), (0, "a"), (True, 0))
       for name, call in (
           ("evaluate_split", lambda c=coords: evaluate_split(X, Y, _rule(c), SSE)),
           ("split_gain", lambda c=coords: split_gain(X, Y, _rule(c), SSE)),
           ("candidate_thresholds", lambda c=coords: candidate_thresholds(X, c, "observed")))},
    **{f"{name} threshold {threshold!r}": (call, "threshold")
       for threshold in ("a", NAN)
       for name, call in (
           ("evaluate_split", lambda t=threshold: evaluate_split(X, Y, _rule((0, 0), t), SSE)),
           ("split_gain", lambda t=threshold: split_gain(X, Y, _rule((0, 0), t), SSE)))},
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_public_argument_refused_with_value_error(case):
    call, name = BAD_ARGUMENTS[case]
    with pytest.raises(ValueError, match=name):
        call()


def test_numpy_ints_and_floats_still_accepted():
    rule = SplitRule((np.int64(0), np.int32(1)), np.float32(0.5))
    assert evaluate_split(X, Y, rule, SSE) == evaluate_split(X, Y, SplitRule((0, 1), 0.5), SSE)
    assert find_best_split(X, Y, SSE, STRATEGY, min_child=0) is not None
    assert len(train_test_split(X, Y, fraction=np.float64(0.5), seed=np.int64(3))[0]) == 10


LAE = SplitCriterion(kind="lae", split_rank=1)
CALLS_WITHOUT_Y = {
    "find_best_split": lambda: find_best_split(X, None, LAE, STRATEGY),
    "evaluate_split": lambda: evaluate_split(X, None, _rule((0, 0)), LAE),
    "split_gain": lambda: split_gain(X, None, _rule((0, 0)), LAE),
    "node_criterion_value": lambda: node_criterion_value(X, None, LAE),
}


@pytest.mark.parametrize("name", sorted(CALLS_WITHOUT_Y))
def test_lae_without_responses_checks_its_input_once(name, monkeypatch):
    calls = []
    real = splitting._check_stacked

    def counted(*args):
        calls.append(len(args))
        return real(*args)

    monkeypatch.setattr(splitting, "_check_stacked", counted)
    CALLS_WITHOUT_Y[name]()
    assert calls == [1]


@pytest.mark.parametrize("fit, config", [
    (fit_boosting, lambda seed: BoostingConfig(n_estimators=2, p_resample=0.5, seed=seed)),
    (fit_forest, lambda seed: ForestConfig(n_trees=2, seed=seed)),
], ids=["boosting", "forest"])
def test_numpy_integer_seed_fits_the_int_seed_model(fit, config):
    assert dumps(fit(X, Y, config(np.int64(7)))) == dumps(fit(X, Y, config(7)))


# --- odd arrays at every array argument --------------------------------------

RNG = make_rng(4)
XS = RNG.uniform(size=(12, 2, 3))  # stacked inputs
YS = XS[:, 0, 0] + 2 * (XS[:, 1, 2] > 0.5)  # responses
OUT = np.stack([YS, XS[:, 0, 1]], axis=1)  # stacked outputs
TENSOR = RNG.uniform(size=(3, 2, 4))
MATRIX = RNG.uniform(size=(4, 2))
VECTOR = RNG.uniform(size=3)
ALS = AlsConfig(max_iterations=3)
STUMP = GrowConfig(max_depth=1, min_samples_leaf=2)
BOOST = BoostingConfig(n_estimators=2, tree=STUMP)
FOREST = ForestConfig(n_trees=2, tree=STUMP)
CP_LEAF = LeafModelSpec(kind="cp", rank=1, als=ALS)
ENTRYWISE = OutputConfig(approach="entrywise", boosting=BOOST)
LOWRANK = OutputConfig(approach="lowrank", rank=1, boosting=BOOST, als=ALS)
TREE = grow(XS, YS, STUMP)
LEAF = fit_leaf(XS, YS, CP_LEAF)
ENTRYWISE_MODEL = fit_entrywise(XS, OUT, ENTRYWISE)
RULE = SplitRule((0, 0), 0.5)
CP = cp_als(TENSOR, 2, ALS)[0]
TUCKER = tucker_als(TENSOR, 1, ALS)[0]
CP_OUTPUT_MODEL = fit_lowrank(XS, OUT, LOWRANK)
TUCKER_OUTPUT_MODEL = fit_lowrank(XS, OUT, OutputConfig(approach="lowrank", decomp="tucker", rank=1,
                                                        boosting=BOOST, als=ALS))


def _output_model(model, **arrays):
    """``model``'s low-rank output model rebuilt in memory with ``arrays`` in place of its own."""
    pieces = {"weights": model.weights, "core": model.core, "output_factors": model.output_factors, **arrays}
    return TensorOutputModel(model.kind, model.output_shape, model.ensembles, model.decomp_kind, **pieces)


def _with_second(f, good):
    """``(call of one array, a valid value for it)`` for the array's two call positions."""
    return {"first": (lambda a: f(a, good[1]), good[0]), "second": (lambda a: f(good[0], a), good[1])}


def _pairs(name, f, good):
    return {f"{name} {position}": case for position, case in _with_second(f, good).items()}


# name -> (call of the odd array, a valid array in its place)
ARRAY_ARGUMENTS = {
    "unfold": (lambda a: unfold(a, 1), TENSOR),
    "fold": (lambda a: fold(a, 0, (4, 2)), MATRIX),
    "frobenius_norm": (frobenius_norm, TENSOR),
    "outer": (lambda a: outer([a, VECTOR]), VECTOR),
    "outer vectors": (outer, np.stack([VECTOR, VECTOR])),
    "CPDecomposition weights": (lambda a: CPDecomposition(a, CP.factors).to_tensor(), CP.weights),
    "CPDecomposition factors": (lambda a: CPDecomposition(CP.weights, (a,) + CP.factors[1:]).to_tensor(),
                                CP.factors[0]),
    "TuckerDecomposition core": (lambda a: TuckerDecomposition(a, TUCKER.factors).to_tensor(), TUCKER.core),
    "TuckerDecomposition factors": (
        lambda a: TuckerDecomposition(TUCKER.core, TUCKER.factors[:-1] + (a,)).to_tensor(), TUCKER.factors[-1]),
    "TensorOutputModel weights": (lambda a: _output_model(CP_OUTPUT_MODEL, weights=a).predict(XS),
                                  CP_OUTPUT_MODEL.weights),
    "TensorOutputModel core": (lambda a: _output_model(TUCKER_OUTPUT_MODEL, core=a).predict(XS),
                               TUCKER_OUTPUT_MODEL.core),
    "TensorOutputModel output_factors": (
        lambda a: _output_model(CP_OUTPUT_MODEL, output_factors=(a,)).predict(XS), CP_OUTPUT_MODEL.output_factors[0]),
    "cp_als": (lambda a: cp_als(a, 2, ALS), TENSOR),
    "tucker_als": (lambda a: tucker_als(a, 1, ALS), TENSOR),
    "approximation_error": (lambda a: approximation_error(a, cp_als(TENSOR, 1, ALS)[0]), TENSOR),
    "variance_matrix": (variance_matrix, XS),
    "candidate_thresholds": (lambda a: candidate_thresholds(a, (0, 0), "observed"), XS),
    "predict_leaf": (lambda a: predict_leaf(LEAF, a), XS),
    "TensorTree.predict": (TREE.predict, XS),
    "TensorTree.apply": (TREE.apply, XS),
    "BoostedModel.predict": (fit_boosting(XS, YS, BOOST).predict, XS),
    "ForestModel.predict": (fit_forest(XS, YS, FOREST).predict, XS),
    "TensorOutputModel.predict": (ENTRYWISE_MODEL.predict, XS),
    "predict_tensor": (lambda a: predict_tensor(CP_OUTPUT_MODEL, a), XS),
    **_pairs("mode_product", lambda t, m: mode_product(t, m, 0), (TENSOR, MATRIX[:3].T)),
    **_pairs("khatri_rao", khatri_rao, (MATRIX, MATRIX)),
    **_pairs("contract", contract, (XS, XS[0])),
    **_pairs("evaluate", evaluate, (YS, YS + 0.5)),
    **_pairs("train_test_split", train_test_split, (XS, YS)),
    **_pairs("fit_leaf", lambda x, y: fit_leaf(x, y, CP_LEAF), (XS, YS)),
    **_pairs("evaluate_split", lambda x, y: evaluate_split(x, y, RULE, SSE), (XS, YS)),
    **_pairs("find_best_split", lambda x, y: find_best_split(x, y, SSE, STRATEGY), (XS, YS)),
    **_pairs("node_criterion_value", lambda x, y: node_criterion_value(x, y, SSE), (XS, YS)),
    **_pairs("split_gain", lambda x, y: split_gain(x, y, RULE, SSE), (XS, YS)),
    **_pairs("grow", lambda x, y: grow(x, y, STUMP), (XS, YS)),
    **_pairs("fit_boosting", lambda x, y: fit_boosting(x, y, BOOST), (XS, YS)),
    **_pairs("fit_forest", lambda x, y: fit_forest(x, y, FOREST), (XS, YS)),
    **_pairs("fit_entrywise", lambda x, y: fit_entrywise(x, y, ENTRYWISE), (XS, OUT)),
    **_pairs("fit_lowrank", lambda x, y: fit_lowrank(x, y, LOWRANK), (XS, OUT)),
}


def _strided(a):
    """``a``'s values in a view that steps over every other entry of its last mode."""
    return np.repeat(a, 2, axis=-1)[..., ::2]


# odd array -> (the array made from a valid one, the outcomes it may have)
ODD_ARRAYS = {
    "valid": (lambda a: a, "accepted"),
    "scalar": (lambda a: 1.5, "refused"),
    "None": (lambda a: None, "refused"),
    "0-d": (lambda a: np.array(1.5), "refused"),
    "complex": (lambda a: a + 0j, "refused"),
    "numeric strings": (lambda a: a.astype(str), "refused"),
    "object": (lambda a: a.astype(object), "refused"),
    "masked": (lambda a: np.ma.masked_array(a, mask=np.zeros(a.shape, dtype=bool)), "refused"),
    "five modes": (lambda a: a.reshape(a.shape + (1,) * (5 - a.ndim)), "refused"),
    "bool": (lambda a: a > 0.5, "accepted"),
    "Fortran-ordered": (np.asfortranarray, "accepted"),
    "strided": (_strided, "accepted"),
    "empty": (lambda a: a[:0], "either"),
    "one mode fewer": (lambda a: a[0], "either"),
}


@pytest.mark.parametrize("argument", sorted(ARRAY_ARGUMENTS))
def test_odd_arrays_are_refused_with_value_error_or_accepted(argument):
    call, good = ARRAY_ARGUMENTS[argument]
    for odd, (make, allowed) in ODD_ARRAYS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(make(good))
                outcome = "accepted"
            except ValueError:
                outcome = "refused"
            except Exception as exc:  # report the odd array that broke the contract
                raise AssertionError(f"{argument} on {odd}: {type(exc).__name__}: {exc}") from exc
        assert allowed in (outcome, "either"), f"{argument} on {odd}: {outcome}, expected {allowed}"
