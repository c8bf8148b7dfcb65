"""Config objects reject non-finite or bool numbers, non-integer counts and
non-bool flags when built.

A bare ``v < 0`` check passes a NaN, an infinity, a float or a bool,
which then fails, or silently misbehaves, deep inside a fit.  These
checks are the only ones a CLI config value gets; the CLI side, exit
code 2 with one ``error:`` line, is checked in ``test_cli``.
"""

import math

import numpy as np
import pytest

from tensortree.data import SyntheticSpec
from tensortree.decomposition import AlsConfig
from tensortree.ensemble import BoostingConfig, ForestConfig
from tensortree.leaf_models import LeafModelSpec
from tensortree.splitting import SearchStrategy
from tensortree.tensor_output import OutputConfig
from tensortree.tree import GrowConfig, PruneConfig

# field -> a config built with that field set to ``v``
NUMBERS = {
    "PruneConfig.alpha": lambda v: PruneConfig(alpha=v),
    "BoostingConfig.learning_rate": lambda v: BoostingConfig(learning_rate=v),
    "AlsConfig.rel_tolerance": lambda v: AlsConfig(rel_tolerance=v),
    "SyntheticSpec.noise_sigma": lambda v: SyntheticSpec("table2_linear", 10, noise_sigma=v),
    "SyntheticSpec.noise_scale": lambda v: SyntheticSpec("table2_linear", 10, noise_scale=v),
    "BoostingConfig.p_resample": lambda v: BoostingConfig(p_resample=v),
    "SearchStrategy.tau": lambda v: SearchStrategy(kind="leverage", tau=v),
    "ForestConfig.tau": lambda v: ForestConfig(tau=v),
}
COUNTS = {
    "AlsConfig.max_iterations": lambda v: AlsConfig(max_iterations=v),
    "AlsConfig.seed": lambda v: AlsConfig(seed=v),
    "BoostingConfig.n_estimators": lambda v: BoostingConfig(n_estimators=v),
    "BoostingConfig.seed": lambda v: BoostingConfig(seed=v),
    "ForestConfig.n_trees": lambda v: ForestConfig(n_trees=v),
    "ForestConfig.seed": lambda v: ForestConfig(seed=v),
    "SyntheticSpec.n": lambda v: SyntheticSpec("table2_linear", v),
    "SyntheticSpec.seed": lambda v: SyntheticSpec("table2_linear", 10, seed=v),
    "GrowConfig.max_depth": lambda v: GrowConfig(max_depth=v),
    "GrowConfig.min_samples_leaf": lambda v: GrowConfig(min_samples_leaf=v),
    "SearchStrategy.xi": lambda v: SearchStrategy(kind="bb", xi=v),
    "SearchStrategy.seed": lambda v: SearchStrategy(seed=v),
}
FLAGS = {
    "LeafModelSpec.intercept": lambda v: LeafModelSpec(intercept=v),
    "ForestConfig.bootstrap": lambda v: ForestConfig(bootstrap=v),
}
BUILDERS = {**NUMBERS, **COUNTS, **FLAGS}


# an int beyond the float range is infinite as a float, and float() overflows on it
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400, -(10 ** 400)],
                         ids=["nan", "inf", "-inf", "huge-int", "-huge-int"])
@pytest.mark.parametrize("field", NUMBERS)
def test_non_finite_number_rejected(field, value):
    with pytest.raises(ValueError, match="must be finite"):
        BUILDERS[field](value)


@pytest.mark.parametrize("field", NUMBERS)
def test_finite_number_accepted(field):
    BUILDERS[field](0.5)
    BUILDERS[field](np.float32(0.5))
    BUILDERS[field](1)


@pytest.mark.parametrize("value", [True, False, np.True_, "0.5"],
                         ids=["True", "False", "np-True", "str"])
@pytest.mark.parametrize("field", NUMBERS)
def test_non_number_rejected(field, value):
    with pytest.raises(ValueError, match="must be a number"):
        BUILDERS[field](value)


@pytest.mark.parametrize("value", [1.0, 1.5, True, np.float64(2.0)],
                         ids=["1.0", "1.5", "True", "np-2.0"])
@pytest.mark.parametrize("field", COUNTS)
def test_non_integer_count_rejected(field, value):
    with pytest.raises(ValueError, match="must be an int"):
        BUILDERS[field](value)


@pytest.mark.parametrize("field", COUNTS)
def test_integer_count_accepted(field):
    assert getattr(BUILDERS[field](2), field.split(".")[1]) == 2
    BUILDERS[field](np.int64(3))


def test_seed_may_be_negative():
    # seeds are masked to 64 bits, so any int keys a stream
    assert SearchStrategy(seed=-1).seed == -1


@pytest.mark.parametrize("value", [None, "no", 1, 0.0], ids=["None", "str", "1", "0.0"])
@pytest.mark.parametrize("field", FLAGS)
def test_non_bool_flag_rejected(field, value):
    with pytest.raises(ValueError, match="must be a bool"):
        BUILDERS[field](value)


@pytest.mark.parametrize("field", FLAGS)
def test_bool_flag_accepted(field):
    for value in (True, False, np.False_):
        assert getattr(BUILDERS[field](value), field.split(".")[1]) == value


@pytest.mark.parametrize("build", [
    lambda: LeafModelSpec(intercept="no"),
    lambda: ForestConfig(bootstrap=None),
    lambda: OutputConfig(approach="entrywise", rank="x"),
    lambda: OutputConfig(approach="entrywise", decomp="cp", rank=(2, 2)),
    lambda: SearchStrategy(tau=10 ** 400),
    lambda: SyntheticSpec(["table2_linear"], 10),
], ids=["intercept-str", "bootstrap-None", "entrywise-rank-str", "entrywise-cp-rank-tuple",
        "tau-huge-int", "generator-list"])
def test_value_rejected_by_the_config_class(build):
    with pytest.raises(ValueError):
        build()


def test_entrywise_output_takes_a_valid_rank_or_none():
    assert OutputConfig(approach="entrywise").rank is None
    assert OutputConfig(approach="entrywise", decomp="tucker", rank=(2, 2)).rank == (2, 2)
