"""Tensor-on-tensor regression via ensembles of scalar tensor trees.

Two schemes map a stacked tensor response ``Y`` onto scalar boosting
problems:

* entrywise - one boosted ensemble per output entry, entries treated as
  mutually independent.  Per-entry seeds are derived from the base seed
  and the entry's flat index, so fitting is order-independent.
* low-rank - decompose the stacked ``Y`` (observation mode first) once,
  freeze the weights (CP) or core (Tucker) together with every
  non-observation factor, and fit one boosted ensemble per column of the
  observation-mode factor.  Prediction regresses a new observation's
  factor row and reconstructs through the frozen pieces.  The
  observation factor keeps whatever column convention the decomposition
  produced (unit norm for CP, orthonormal for Tucker); predicted rows
  live on the same scale because the targets do.

Per-entry and per-column fits are independent.  With ``n_threads > 1``
on Linux they run on up to that many forked worker processes; with one
worker, or on other platforms, they run one after another in process.
Results do not depend on the worker count.  A caller that runs threads
of its own should fit with one worker: a thread holding a lock when the
workers fork leaves that lock held in every worker.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

import numpy as np

from ._checks import (_check_array, _check_arrays, _check_choice, _check_int, _check_output, _check_rank,
                      _finite_predictions, _resolve_ranks)
from ._rng import derive_seed
from .decomposition import AlsConfig, CPDecomposition, TuckerDecomposition, cp_als, tucker_als
from .ensemble import BoostedModel, BoostingConfig, fit_boosting
from .splitting import _RankTable
from .tree import _ColumnTable


@dataclass(frozen=True)
class OutputConfig:
    """Configuration for a tensor-output model.

    ``rank`` is the output-decomposition rank for the low-rank approach
    (int, or per-mode tuple for Tucker counting the observation mode
    first).  The entrywise approach does not use it, but checks one that
    is given.
    """

    approach: str = "entrywise"
    decomp: str = "cp"
    rank: int | tuple[int, ...] | None = None
    boosting: BoostingConfig = field(default_factory=BoostingConfig)
    als: AlsConfig = field(default_factory=AlsConfig)

    def __post_init__(self) -> None:
        _check_choice(self.approach, ("entrywise", "lowrank"), "approach")
        _check_choice(self.decomp, ("cp", "tucker"), "decomposition")
        if self.approach == "lowrank" or self.rank is not None:
            _check_rank(self.rank, self.decomp, "output rank")


class TensorOutputModel:
    """Fitted tensor-output regressor; see :func:`fit_entrywise` / :func:`fit_lowrank`."""

    def __init__(
        self,
        kind: str,
        output_shape: tuple[int, ...],
        ensembles: list[BoostedModel],
        decomp_kind: str | None = None,
        weights: np.ndarray | None = None,
        core: np.ndarray | None = None,
        output_factors: tuple[np.ndarray, ...] = (),
    ):
        self.kind = kind
        self.output_shape = tuple(output_shape)
        self.ensembles = list(ensembles)
        self.decomp_kind = decomp_kind
        self.weights = None if weights is None else _check_array(weights, "CP weights", (1, 1))
        self.core = None if core is None else _check_array(core, "Tucker core", (2, 3))
        # one factor per output mode; an entrywise model has none
        self.output_factors = _check_arrays(output_factors, "output factor", (2, 2), (0, 2))

    def predict(self, x) -> np.ndarray:
        return predict_tensor(self, x)


def _fit_column(x, targets: np.ndarray, boosting: BoostingConfig, ranks: _RankTable,
                col: int) -> BoostedModel:
    """The boosted ensemble of column ``col`` of ``targets``, seeded by the column index.

    ``ranks`` is the rank table of ``x`` that the columns' fits share.
    """
    cfg = replace(boosting, seed=derive_seed(boosting.seed, col))
    return fit_boosting(x, targets[:, col], cfg, _ranks=ranks)


# The inputs of the running fit, in a worker process only; set by _start_worker.
_worker_inputs: tuple = ()


def _start_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _fit_worker_column(col: int) -> BoostedModel:
    return _fit_column(*_worker_inputs, col)


def _fit_columns(x, targets: np.ndarray, boosting: BoostingConfig,
                 n_threads: int) -> list[BoostedModel]:
    """One boosted ensemble per column of ``targets``, in column order.

    The columns' fits share one rank table of ``x``, so a process ranks
    and sorts each column of ``x`` at most once, and a tree's node takes
    the sort orders of the previous tree's node on the same rule path,
    even one of another column's fit, when the two hold the same rows.
    Up to ``n_threads`` forked workers fit the columns.  A forked worker
    inherits ``x``, ``targets``, ``boosting`` and the table from this
    process (and fills its own copy of the table), so a job sends only its
    column index; a spawned worker would start a fresh interpreter and
    re-import NumPy, which costs more than a whole fit.
    """
    columns = targets.shape[1]
    workers = min(n_threads, columns)
    ranks = _RankTable(x)
    if workers <= 1 or sys.platform != "linux":
        return [_fit_column(x, targets, boosting, ranks, col) for col in range(columns)]
    # Imported here, so that a process that never forks workers does not
    # load the 32 modules (about 1.3 MB) they bring.
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(x, targets, boosting, ranks))
    try:
        return list(pool.map(_fit_worker_column, range(columns)))
    except BrokenProcessPool as exc:
        # A worker died (a signal, the OOM killer); an exception that a job
        # raises reaches the caller unchanged.
        raise OSError("a worker process ended before its job finished") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def fit_entrywise(x, y, config: OutputConfig, n_threads: int = 1) -> TensorOutputModel:
    """One boosted ensemble per output entry, fitted independently.

    ``n_threads`` bounds the worker processes (0 and 1 both fit in process).
    """
    _check_int(n_threads, "n_threads", 0)
    x, y = _check_output(x, y)
    ensembles = _fit_columns(x, y.reshape(y.shape[0], -1), config.boosting, n_threads)
    return TensorOutputModel("entrywise", y.shape[1:], ensembles)


def fit_lowrank(x, y, config: OutputConfig, n_threads: int = 1) -> TensorOutputModel:
    """Decompose the stacked output once, then regress the observation factor.

    The non-observation factors and the CP weights (or Tucker core) are
    recorded from the decomposition and reused verbatim at prediction
    time; only the observation-mode factor is modeled as a function of
    the input.  ``n_threads`` is as for :func:`fit_entrywise`.
    """
    _check_int(n_threads, "n_threads", 0)
    x, y = _check_output(x, y)
    if config.decomp == "cp":
        decomp, _ = cp_als(y, int(config.rank), config.als)
        weights, core = decomp.weights, None
    else:
        decomp, _ = tucker_als(y, _resolve_ranks(config.rank, y.shape), config.als)
        weights, core = None, decomp.core
    return TensorOutputModel(
        "lowrank",
        y.shape[1:],
        _fit_columns(x, decomp.factors[0], config.boosting, n_threads),
        decomp_kind=config.decomp,
        weights=weights,
        core=core,
        output_factors=decomp.factors[1:],
    )


def reconstruct_from_observation_factor(model: TensorOutputModel, obs_factor: np.ndarray) -> np.ndarray:
    """Rebuild stacked outputs from observation-factor rows and the frozen pieces."""
    if model.kind != "lowrank":
        raise ValueError("only lowrank models reconstruct from a factor")
    factors = (obs_factor,) + model.output_factors
    if model.decomp_kind == "cp":
        # Reconstruction only multiplies through, so non-unit-norm rows
        # of the predicted observation factor are fine here.
        return CPDecomposition(weights=model.weights, factors=factors).to_tensor()
    return TuckerDecomposition(core=model.core, factors=factors).to_tensor()


@_finite_predictions
def predict_tensor(model: TensorOutputModel, x) -> np.ndarray:
    """Predict a stacked output tensor of shape ``(n,) + output_shape``.

    Checks ``x`` once, and every tree with a split, in every ensemble,
    routes it through one column table; a tree that is one mean leaf adds
    its mean with no walk.  Only the output tensor is checked, and a
    non-finite one raises ``ValueError``.
    """
    table = _ColumnTable(x)
    columns = np.column_stack([ens._predict(table) for ens in model.ensembles])
    if model.kind == "entrywise":
        return columns.reshape((table.x.shape[0],) + model.output_shape)
    return reconstruct_from_observation_factor(model, columns)
