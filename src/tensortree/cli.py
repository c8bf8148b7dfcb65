"""Command-line interface: dataset synthesis, model fit/predict, benchmark sweeps.

Subcommands
-----------
synth
    Write a synthetic dataset as ``X.npy`` plus ``y.npy`` (scalar
    response) or ``Y.npy`` (tensor response) into an output directory.
fit
    Train the model described by a JSON run config and write the model
    document; training metrics are printed to stdout as JSON.
predict
    Load a model file, predict an ``.npy`` input stack, write the
    predictions; metrics are printed when a reference response is given.
bench
    Run a sweep config (cartesian product over listed parameter values)
    and write one CSV row per cell with train/test metrics and wall-clock
    fit/predict times.

A run config is a JSON object with ``model`` and ``data`` and any of the
keys of ``_SETTINGS``, each of which sets one field of a library config
object; a key left out takes the library default.  A value reaches its
field as JSON gave it (a list as a tuple), and that config class's own
check decides whether it is valid.  ``null`` is rejected for every key,
as is any unknown key, here and in a bench config's ``synthetic`` object.

Exit codes: 0 success, 2 config or usage error (``ConfigError``; a config
file that is not UTF-8 JSON included), 3 data error: an ``OSError`` (a
file that cannot be read or written) or a ``ValueError`` (a response that
cannot be scored included).  ``main`` alone maps exceptions to exit codes.
Arrays are exchanged as NPY files (little-endian float64, C order).  The
``--threads`` flag (fallback: ``TT_THREADS`` environment variable, then
the number of CPUs the process may run on) bounds the worker processes
that fit a tensor-output model's per-entry or per-column ensembles on
Linux; elsewhere, or with one worker, those fits run in process.  Results
are identical for every thread count.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
import time

import numpy as np

from ._checks import MAX_MODES, _check_array, _check_choice, _check_keys, _check_number
from .data import SyntheticSpec, evaluate, generate, train_test_split
from .decomposition import AlsConfig
from .ensemble import BoostingConfig, ForestConfig, fit_boosting, fit_forest
from .leaf_models import LeafModelSpec
from .serialize import load_model, save_model
from .splitting import SearchStrategy, SplitCriterion
from .tensor_output import OutputConfig, fit_entrywise, fit_lowrank
from .tree import GrowConfig, PruneConfig, grow, prune


class ConfigError(Exception):
    """Invalid configuration or usage; maps to exit code 2."""


# Run-config key -> (config object, field).  A key left out of the config
# leaves the field to the library default.  "run" is the seed shared by
# the search strategy, the ensembles and the bench train/test split;
# "cp leaf"/"tucker leaf" is read only for that leaf kind; "als.<key>" is a
# key of the nested "als" object.
_SETTINGS = {
    "seed": ("run", "seed"),
    "max_depth": ("grow", "max_depth"),
    "min_samples_leaf": ("grow", "min_samples_leaf"),
    "criterion": ("criterion", "kind"),
    "value_mode": ("criterion", "value_mode"),
    "split_rank": ("criterion", "split_rank"),
    "split_decomp": ("criterion", "decomp"),
    "strategy": ("strategy", "kind"),
    "tau": ("strategy", "tau"),
    "xi": ("strategy", "xi"),
    "leaf_model": ("leaf", "kind"),
    "CP_reg_rank": ("cp leaf", "rank"),
    "Tucker_reg_rank": ("tucker leaf", "rank"),
    "intercept": ("leaf", "intercept"),
    "als.max_iterations": ("als", "max_iterations"),
    "als.rel_tolerance": ("als", "rel_tolerance"),
    "als.seed": ("als", "seed"),
    "n_estimators": ("boosting", "n_estimators"),
    "learning_rate": ("boosting", "learning_rate"),
    "p_resample": ("boosting", "p_resample"),
    "n_trees": ("forest", "n_trees"),
    "bootstrap": ("forest", "bootstrap"),
    "forest_tau": ("forest", "tau"),
    "alpha": ("prune", "alpha"),
    "prune_quality": ("prune", "quality"),
    "prune_lae_rank": ("prune", "lae_rank"),
    "output_decomp": ("output", "decomp"),
    "output_rank": ("output", "rank"),
}

_RUN_KEYS = {"model", "data"} | {key.split(".")[0] for key in _SETTINGS}
_ALS_KEYS = {key.split(".")[1] for key in _SETTINGS if key.startswith("als.")}

# the SyntheticSpec fields, each settable in a bench config's "synthetic" object
_SYNTHETIC = ("generator", "n", "noise_sigma", "noise_scale", "seed")

_MODELS = ("tree", "boosting", "forest", "entrywise", "lowrank")


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``; the value a config check rejects is a ConfigError (exit 2)."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _value(value, key: str):
    """JSON ``value`` of ``key`` as its field takes it: a list becomes a tuple, null is refused."""
    if value is None:
        raise ConfigError(f"{key} must not be null")
    return tuple(value) if isinstance(value, list) else value


def _fields(cfg: dict, obj: str) -> dict:
    """The fields of config object ``obj`` that ``cfg`` sets; the object checks them."""
    return {field: _value(cfg[key], key)
            for key, (target, field) in _SETTINGS.items()
            if target == obj and key in cfg}


def _flatten_als(cfg: dict) -> dict:
    """``cfg`` with each key of its ``als`` object also present as ``als.<key>``."""
    als = cfg.get("als", {})
    _checked(_check_keys, als, _ALS_KEYS, "als")
    return {**cfg, **{f"als.{key}": value for key, value in als.items()}}


def _validate_fit_config(cfg: dict, allowed: set = _RUN_KEYS) -> None:
    _checked(_check_keys, cfg, allowed, "config")
    _checked(_check_choice, cfg.get("model"), _MODELS, "model")


def _load_array(path: str) -> np.ndarray:
    # An OSError names the path; the error for an empty, non-NPY or non-numeric file does not.
    try:
        return _check_array(np.load(path), "the array", (1, MAX_MODES))
    except (EOFError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _load_data(data) -> tuple[np.ndarray, np.ndarray]:
    """The arrays at the ``x`` and ``y`` paths of a config's ``data`` object."""
    if not isinstance(data, dict) or not all(isinstance(data.get(k), str) for k in ("x", "y")):
        raise ConfigError("data must be an object with 'x' and 'y' paths")
    return _load_array(data["x"]), _load_array(data["y"])


def _save_array(path: str, arr: np.ndarray) -> None:
    np.save(path, np.ascontiguousarray(arr, dtype=np.float64))


def _model_config(cfg: dict, seed: dict):
    """The library config of ``cfg``'s model; ``seed`` is ``_fields(cfg, "run")`` or the
    ``--seed`` override.

    A tree takes a ``(GrowConfig, PruneConfig or None)`` pair, the other
    kinds their fitter's config.  Only the config objects this model kind
    uses are built, and each checks its own fields.
    """
    model_kind = cfg["model"]
    cfg = _flatten_als(cfg)
    als = AlsConfig(**_fields(cfg, "als"))
    leaf = _fields(cfg, "leaf")
    grow_cfg = GrowConfig(
        **_fields(cfg, "grow"),
        criterion=SplitCriterion(**_fields(cfg, "criterion"), als=als),
        strategy=SearchStrategy(**_fields(cfg, "strategy"), **seed),
        leaf=LeafModelSpec(**leaf, **_fields(cfg, f"{leaf.get('kind')} leaf"), als=als),
    )
    if model_kind == "forest":
        return ForestConfig(**_fields(cfg, "forest"), tree=grow_cfg, **seed)
    # a config without alpha does not prune
    prune_cfg = PruneConfig(**_fields(cfg, "prune"), als=als) if "alpha" in cfg else None
    if model_kind == "tree":
        return grow_cfg, prune_cfg
    boost_cfg = BoostingConfig(**_fields(cfg, "boosting"), tree=grow_cfg, prune=prune_cfg, **seed)
    if model_kind == "boosting":
        return boost_cfg
    return OutputConfig(approach=model_kind, **_fields(cfg, "output"), boosting=boost_cfg, als=als)


def _fit_model(model_kind: str, config, x: np.ndarray, y: np.ndarray, threads: int):
    """Fit a ``model_kind`` model with its ``_model_config``; bad arrays raise ValueError."""
    if model_kind in ("tree", "boosting", "forest") and y.ndim != 1:
        raise ValueError(f"model {model_kind!r} needs a scalar response, got shape {y.shape}")
    if model_kind == "tree":
        grow_cfg, prune_cfg = config
        tree = grow(x, y, grow_cfg)
        return prune(tree, prune_cfg) if prune_cfg is not None else tree
    if model_kind == "boosting":
        return fit_boosting(x, y, config)
    if model_kind == "forest":
        return fit_forest(x, y, config)
    fit = fit_entrywise if model_kind == "entrywise" else fit_lowrank
    return fit(x, y, config, n_threads=threads)


def _score(y: np.ndarray, pred: np.ndarray) -> dict:
    """MSE, RMSE and RPE of ``pred``; a response ``evaluate`` cannot score raises ValueError."""
    m = evaluate(y, pred)
    return {"mse": m.mse, "rmse": m.rmse, "rpe": m.rpe}


def _resolve_threads(value: int | None) -> int:
    """The ``--threads`` value, else ``TT_THREADS``, else the CPUs this process may run on."""
    if value is not None:
        return max(1, value)
    env = os.environ.get("TT_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"TT_THREADS must be an integer, got {env!r}") from None
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return max(1, os.cpu_count() or 1)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # invalid JSON, or text that is not UTF-8
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None


def _cmd_synth(args) -> int:
    x, y = generate(_checked(SyntheticSpec, **{key: getattr(args, key) for key in _SYNTHETIC}))
    os.makedirs(args.out, exist_ok=True)
    _save_array(os.path.join(args.out, "X.npy"), x)
    name = "y.npy" if y.ndim == 1 else "Y.npy"
    _save_array(os.path.join(args.out, name), y)
    print(json.dumps({"x_shape": list(x.shape), "y_shape": list(y.shape)}, sort_keys=True))
    return 0


def _cmd_fit(args) -> int:
    cfg = _read_json(args.config)
    _validate_fit_config(cfg)
    seed = {"seed": args.seed} if args.seed is not None else _fields(cfg, "run")
    config = _checked(_model_config, cfg, seed)
    threads = _resolve_threads(args.threads)
    x, y = _load_data(cfg.get("data"))
    model = _fit_model(cfg["model"], config, x, y, threads)
    metrics = json.dumps(_score(y, model.predict(x)), sort_keys=True)
    save_model(model, args.out)
    print(metrics)
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    pred = model.predict(_load_array(args.x))
    _save_array(args.out, pred)
    if args.y is not None:
        print(json.dumps(_score(_load_array(args.y), pred), sort_keys=True))
    return 0


_BENCH_KEYS = {"synthetic", "data", "test_fraction", "base", "sweep"}


def _synthetic_fields(cfg: dict) -> dict | None:
    """The fields of a bench config's ``synthetic`` object; None when it reads ``data``."""
    if "synthetic" not in cfg:
        if "data" not in cfg:
            raise ConfigError("bench config needs 'synthetic' or 'data'")
        return None
    doc = cfg["synthetic"]
    _checked(_check_keys, doc, set(_SYNTHETIC), "synthetic")
    return {k: _value(v, k) for k, v in doc.items()}


def _cmd_bench(args) -> int:
    cfg = _read_json(args.config)
    _checked(_check_keys, cfg, _BENCH_KEYS, "bench")
    sweep = cfg.get("sweep", {})
    if not isinstance(sweep, dict) or not all(isinstance(v, list) and v for v in sweep.values()):
        raise ConfigError("sweep must map parameter names to nonempty lists")
    base = cfg.get("base", {})
    if not isinstance(base, dict):
        raise ConfigError("base must be an object")
    fraction = _checked(_check_number, cfg.get("test_fraction", 0.25), "test_fraction", "(0, 1)")
    threads = _resolve_threads(args.threads)
    synthetic = _synthetic_fields(cfg)
    datasets = {}  # SyntheticSpec (None when data is read) -> (x, y)

    keys = sorted(sweep)
    rows = []
    for values in itertools.product(*(sweep[k] for k in keys)):
        cell = dict(zip(keys, values))
        run = {**base, **{k: v for k, v in cell.items() if k != "n"}}
        run.setdefault("model", "tree")
        # a bench run reads its data from the bench config's own dataset
        _validate_fit_config(run, _RUN_KEYS - {"data"})
        # every config value, the split seed included, is checked before the cell runs
        seed = _fields(run, "run")
        config = _checked(_model_config, run, seed)
        n = {"n": cell["n"]} if "n" in cell else {}
        spec = None if synthetic is None else _checked(SyntheticSpec, **{**synthetic, **n})
        if spec not in datasets:
            datasets[spec] = _load_data(cfg["data"]) if spec is None else generate(spec)
        x, y = datasets[spec]
        x_train, y_train, x_test, y_test = train_test_split(x, y, 1.0 - fraction, **seed)
        t0 = time.perf_counter()
        model = _fit_model(run["model"], config, x_train, y_train, threads)
        fit_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        pred_train = model.predict(x_train)
        pred_test = model.predict(x_test)
        predict_seconds = time.perf_counter() - t0
        rows.append(
            {**{k: json.dumps(cell[k]) if isinstance(cell[k], list) else cell[k] for k in keys},
             **{f"train_{k}": v for k, v in _score(y_train, pred_train).items()},
             **{f"test_{k}": v for k, v in _score(y_test, pred_test).items()},
             "fit_seconds": fit_seconds, "predict_seconds": predict_seconds}
        )

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        # the sweep has at least one cell, and every row has the same columns
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(json.dumps({"rows": len(rows), "out": args.out}, sort_keys=True))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tensortree",
        description="Tensor-input regression trees: synthesize data, fit, predict, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset as NPY files")
    p.add_argument("--generator", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--noise-sigma", type=float, default=None, dest="noise_sigma")
    p.add_argument("--noise-scale", type=float, default=None, dest="noise_scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="train a model from a JSON run config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict with a fitted model file")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", default=None, help="optional reference response for metrics")
    p.add_argument("--out", required=True, help="predictions NPY file")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("bench", help="run a sweep and write a CSV of metrics and timings")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="CSV file to write")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
