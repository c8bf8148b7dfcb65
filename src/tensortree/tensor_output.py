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

from ._rng import derive_seed
from .decomposition import (
    AlsConfig,
    CPDecomposition,
    TuckerDecomposition,
    _check_int,
    _check_rank,
    _resolve_ranks,
    cp_als,
    tucker_als,
)
from .ensemble import BoostedModel, BoostingConfig, _finite_predictions, fit_boosting
from .leaf_models import _check_stacked


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
        if self.approach not in ("entrywise", "lowrank"):
            raise ValueError(f"unknown approach {self.approach!r}")
        if self.decomp not in ("cp", "tucker"):
            raise ValueError(f"unknown decomposition {self.decomp!r}")
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
        self.weights = weights
        self.core = core
        self.output_factors = tuple(output_factors)

    def predict(self, x) -> np.ndarray:
        return predict_tensor(self, x)


def _check_output(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Checked stacked inputs, and a stacked output with one or two modes per row."""
    x, _ = _check_stacked(x)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim < 2 or y.ndim > 3:
        raise ValueError(f"stacked output must have 1 or 2 feature modes, got shape {y.shape}")
    if y.shape[0] != x.shape[0]:
        raise ValueError(
            f"input stacks {x.shape[0]} observations but output stacks {y.shape[0]}"
        )
    return x, y


def _fit_column(x, targets: np.ndarray, boosting: BoostingConfig, orders: dict,
                col: int) -> BoostedModel:
    """The boosted ensemble of column ``col`` of ``targets``, seeded by the column index.

    ``orders`` is the sorted-order cache of ``x`` that the columns' fits share.
    """
    cfg = replace(boosting, seed=derive_seed(boosting.seed, col))
    return fit_boosting(x, targets[:, col], cfg, _orders=orders)


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

    The columns' fits share one sorted-order cache of ``x``, so a process
    sorts each column of ``x`` once.  Up to ``n_threads`` forked workers
    fit the columns.  A forked worker inherits ``x``, ``targets``,
    ``boosting`` and the cache from this process, so a job sends only its
    column index; a spawned worker would start a fresh interpreter and
    re-import NumPy, which costs more than a whole fit.
    """
    columns = targets.shape[1]
    workers = min(n_threads, columns)
    orders: dict = {}
    if workers <= 1 or sys.platform != "linux":
        return [_fit_column(x, targets, boosting, orders, col) for col in range(columns)]
    # Imported here, so that a process that never forks workers does not
    # load the 32 modules (about 1.3 MB) they bring.
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(x, targets, boosting, orders))
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
    """Predict a stacked output tensor of shape ``(n,) + output_shape``."""
    x = np.asarray(x, dtype=np.float64)
    columns = np.column_stack([ens.predict(x) for ens in model.ensembles])
    if model.kind == "entrywise":
        return columns.reshape((x.shape[0],) + model.output_shape)
    return reconstruct_from_observation_factor(model, columns)
