"""Every value and array rule lives in ``_checks``, and public arguments meet it.

A structural test reads each package module's syntax tree: no module but
``_checks`` defines a check, and none imports one from elsewhere.  A
table of bad arguments to public functions, each of which once escaped as
a ``TypeError``/``IndexError`` or passed, must now raise ``ValueError``.
"""

import ast
import pathlib
import re

import numpy as np
import pytest

from tensortree import splitting
from tensortree._rng import make_rng
from tensortree.data import train_test_split
from tensortree.ensemble import BoostingConfig, ForestConfig, fit_boosting, fit_forest
from tensortree.serialize import dumps
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
