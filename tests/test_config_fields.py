"""Config objects reject non-finite or bool numbers and non-integer counts when built.

A bare ``v < 0`` check passes a NaN, an infinity, a float or a bool,
which then fails, or silently misbehaves, deep inside a fit.  The CLI
side, exit code 2 with one ``error:`` line, is checked in ``test_cli``.
"""

import math

import numpy as np
import pytest

from tensortree.data import SyntheticSpec
from tensortree.decomposition import AlsConfig
from tensortree.ensemble import BoostingConfig, ForestConfig
from tensortree.splitting import SearchStrategy
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
BUILDERS = {**NUMBERS, **COUNTS}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
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
