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
object; a key left out takes the library default.  Integer keys take a
JSON integer, number keys an integer or a float, string keys a string
and boolean keys ``true``/``false``; rank keys take an integer or a list
of integers.  ``null`` is rejected for every key, as is any unknown key,
here and in a bench config's ``synthetic`` object.

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
import itertools
import json
import os
import sys
import time

import numpy as np

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


def _integer(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _boolean(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _rank(value, key: str):
    # A list arrives as a tuple; the config classes check its entries.
    return tuple(value) if isinstance(value, list) else _integer(value, key)


# Run-config key -> (config object, field, parser).  A key left out of the
# config leaves the field to the library default.  "run" is the seed shared
# by the search strategy, the ensembles and the bench train/test split;
# "cp leaf"/"tucker leaf" is read only for that leaf kind; "als.<key>" is a
# key of the nested "als" object.
_SETTINGS = {
    "seed": ("run", "seed", _integer),
    "max_depth": ("grow", "max_depth", _integer),
    "min_samples_leaf": ("grow", "min_samples_leaf", _integer),
    "criterion": ("criterion", "kind", _string),
    "value_mode": ("criterion", "value_mode", _string),
    "split_rank": ("criterion", "split_rank", _rank),
    "split_decomp": ("criterion", "decomp", _string),
    "strategy": ("strategy", "kind", _string),
    "tau": ("strategy", "tau", _number),
    "xi": ("strategy", "xi", _integer),
    "leaf_model": ("leaf", "kind", _string),
    "CP_reg_rank": ("cp leaf", "rank", _rank),
    "Tucker_reg_rank": ("tucker leaf", "rank", _rank),
    "intercept": ("leaf", "intercept", _boolean),
    "als.max_iterations": ("als", "max_iterations", _integer),
    "als.rel_tolerance": ("als", "rel_tolerance", _number),
    "als.seed": ("als", "seed", _integer),
    "n_estimators": ("boosting", "n_estimators", _integer),
    "learning_rate": ("boosting", "learning_rate", _number),
    "p_resample": ("boosting", "p_resample", _number),
    "n_trees": ("forest", "n_trees", _integer),
    "bootstrap": ("forest", "bootstrap", _boolean),
    "forest_tau": ("forest", "tau", _number),
    "alpha": ("prune", "alpha", _number),
    "prune_quality": ("prune", "quality", _string),
    "prune_lae_rank": ("prune", "lae_rank", _rank),
    "output_decomp": ("output", "decomp", _string),
    "output_rank": ("output", "rank", _rank),
}

_RUN_KEYS = {"model", "data"} | {key.split(".")[0] for key in _SETTINGS}
_ALS_KEYS = {key.split(".")[1] for key in _SETTINGS if key.startswith("als.")}

_SYNTHETIC = {
    "generator": _string, "n": _integer, "noise_sigma": _number, "noise_scale": _number,
    "seed": _integer,
}

_MODELS = ("tree", "boosting", "forest", "entrywise", "lowrank")


def _check_keys(cfg: dict, allowed: set, where: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _parse(convert, value, name: str):
    """``convert(value)``; a value it rejects is a ConfigError naming setting ``name``."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} has the wrong type or value: {value!r}") from None


def _fields(cfg: dict, obj: str) -> dict:
    """The fields of config object ``obj`` that ``cfg`` sets, parsed."""
    return {field: parse(cfg[key], key)
            for key, (target, field, parse) in _SETTINGS.items()
            if target == obj and key in cfg}


def _flatten_als(cfg: dict) -> dict:
    """``cfg`` with each key of its ``als`` object also present as ``als.<key>``."""
    als = cfg.get("als", {})
    if not isinstance(als, dict):
        raise ConfigError("als must be an object")
    _check_keys(als, _ALS_KEYS, "als")
    return {**cfg, **{f"als.{key}": value for key, value in als.items()}}


def _validate_fit_config(cfg: dict, allowed: set = _RUN_KEYS) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("run config must be a JSON object")
    _check_keys(cfg, allowed, "config")
    if cfg.get("model") not in _MODELS:
        raise ConfigError(f"model must be one of {_MODELS}")


def _load_array(path: str) -> np.ndarray:
    # An OSError names the path; the error for an empty, non-NPY or non-numeric file does not.
    try:
        return np.ascontiguousarray(np.load(path), dtype=np.float64)
    except (EOFError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _load_data(data) -> tuple[np.ndarray, np.ndarray]:
    """The arrays at the ``x`` and ``y`` paths of a config's ``data`` object."""
    if not isinstance(data, dict) or not all(isinstance(data.get(k), str) for k in ("x", "y")):
        raise ConfigError("data must be an object with 'x' and 'y' paths")
    return _load_array(data["x"]), _load_array(data["y"])


def _save_array(path: str, arr: np.ndarray) -> None:
    np.save(path, np.ascontiguousarray(arr, dtype=np.float64))


def _fit_model(cfg: dict, x: np.ndarray, y: np.ndarray, seed: dict, threads: int):
    """Fit ``cfg``'s model; ``seed`` is ``_fields(cfg, "run")`` or the ``--seed`` override."""
    model_kind = cfg["model"]
    if model_kind in ("tree", "boosting", "forest") and y.ndim != 1:
        raise ValueError(f"model {model_kind!r} needs a scalar response, got shape {y.shape}")
    if model_kind in ("entrywise", "lowrank") and y.ndim < 2:
        raise ValueError(f"model {model_kind!r} needs a stacked tensor response")

    # configuration problems surface here (exit 2), before any fitting; only
    # the config objects this model kind uses are built
    try:
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
            forest_cfg = ForestConfig(**_fields(cfg, "forest"), tree=grow_cfg, **seed)
        else:
            # a config without alpha does not prune
            prune_cfg = PruneConfig(**_fields(cfg, "prune"), als=als) if "alpha" in cfg else None
        if model_kind in ("boosting", "entrywise", "lowrank"):
            boost_cfg = BoostingConfig(
                **_fields(cfg, "boosting"), tree=grow_cfg, prune=prune_cfg, **seed)
        if model_kind in ("entrywise", "lowrank"):
            out_cfg = OutputConfig(
                approach=model_kind, **_fields(cfg, "output"), boosting=boost_cfg, als=als)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    # problems with the arrays themselves raise ValueError (exit 3)
    if model_kind == "tree":
        tree = grow(x, y, grow_cfg)
        return prune(tree, prune_cfg) if prune_cfg is not None else tree
    if model_kind == "boosting":
        return fit_boosting(x, y, boost_cfg)
    if model_kind == "forest":
        return fit_forest(x, y, forest_cfg)
    fit = fit_entrywise if model_kind == "entrywise" else fit_lowrank
    return fit(x, y, out_cfg, n_threads=threads)


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
        return max(1, _parse(int, env, "TT_THREADS"))
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return max(1, os.cpu_count() or 1)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # invalid JSON, or text that is not UTF-8
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None


def _synthetic(fields: dict):
    """The dataset ``SyntheticSpec(**fields)`` describes; a spec it rejects is a ConfigError."""
    try:
        return generate(SyntheticSpec(**fields))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _cmd_synth(args) -> int:
    x, y = _synthetic({key: getattr(args, key) for key in _SYNTHETIC})
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
    threads = _resolve_threads(args.threads)
    x, y = _load_data(cfg.get("data"))
    model = _fit_model(cfg, x, y, seed, threads)
    metrics = json.dumps(_score(y, model.predict(x)), sort_keys=True)
    save_model(model, args.out)
    print(metrics)
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    pred = model.predict(_load_array(args.x))
    _save_array(args.out, pred)
    if args.y is not None:
        y = _load_array(args.y)
        if y.shape != pred.shape:
            raise ValueError(f"reference shape {y.shape} does not match predictions {pred.shape}")
        print(json.dumps(_score(y, pred), sort_keys=True))
    return 0


_BENCH_KEYS = {"synthetic", "data", "test_fraction", "base", "sweep"}


def _synthetic_fields(cfg: dict) -> dict | None:
    """The parsed ``synthetic`` object of a bench config; None when it reads ``data``."""
    if "synthetic" not in cfg:
        if "data" not in cfg:
            raise ConfigError("bench config needs 'synthetic' or 'data'")
        return None
    doc = cfg["synthetic"]
    if not isinstance(doc, dict):
        raise ConfigError("synthetic must be an object")
    _check_keys(doc, set(_SYNTHETIC), "synthetic")
    return {k: _SYNTHETIC[k](v, k) for k, v in doc.items()}


def _cmd_bench(args) -> int:
    cfg = _read_json(args.config)
    if not isinstance(cfg, dict):
        raise ConfigError("bench config must be a JSON object")
    _check_keys(cfg, _BENCH_KEYS, "bench")
    sweep = cfg.get("sweep", {})
    if not isinstance(sweep, dict) or not all(isinstance(v, list) and v for v in sweep.values()):
        raise ConfigError("sweep must map parameter names to nonempty lists")
    base = cfg.get("base", {})
    if not isinstance(base, dict):
        raise ConfigError("base must be an object")
    fraction = _parse(float, cfg.get("test_fraction", 0.25), "test_fraction")
    if not 0.0 < fraction < 1.0:
        raise ConfigError("test_fraction must be in (0, 1)")
    threads = _resolve_threads(args.threads)
    fields = _synthetic_fields(cfg)
    datasets = {}  # swept n (None when n is not swept or data is read) -> (x, y)

    keys = sorted(sweep)
    rows = []
    for values in itertools.product(*(sweep[k] for k in keys)):
        cell = dict(zip(keys, values))
        run = {**base, **{k: v for k, v in cell.items() if k != "n"}}
        run.setdefault("model", "tree")
        # a bench run reads its data from the bench config's own dataset
        _validate_fit_config(run, _RUN_KEYS - {"data"})
        n = _integer(cell["n"], "n") if fields is not None and "n" in cell else None
        if n not in datasets:
            datasets[n] = (_load_data(cfg["data"]) if fields is None
                           else _synthetic(fields if n is None else {**fields, "n": n}))
        x, y = datasets[n]
        seed = _fields(run, "run")
        x_train, y_train, x_test, y_test = train_test_split(x, y, 1.0 - fraction, **seed)
        t0 = time.perf_counter()
        model = _fit_model(run, x_train, y_train, seed, threads)
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


def _build_parser() -> argparse.ArgumentParser:
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
