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

Exit codes: 0 success, 2 config or usage error, 3 data error.  Arrays
are exchanged as NPY files (little-endian float64, C order).  The
``--threads`` flag (fallback: ``TT_THREADS`` environment variable)
bounds the worker pool used for per-entry ensemble fitting; results are
identical for every thread count.
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

from .data import GENERATORS, SyntheticSpec, evaluate, generate, train_test_split
from .decomposition import AlsConfig
from .ensemble import BoostingConfig, ForestConfig, fit_boosting, fit_forest
from .leaf_models import LeafModelSpec
from .serialize import load_model, save_model
from .splitting import SearchStrategy, SplitCriterion
from .tensor_output import OutputConfig, fit_entrywise, fit_lowrank
from .tree import GrowConfig, PruneConfig, grow, prune


class ConfigError(Exception):
    """Invalid configuration or usage; maps to exit code 2."""


class DataError(Exception):
    """Missing or inconsistent data; maps to exit code 3."""


def _as_rank(value):
    # The config classes check the rank itself (a JSON list arrives as a list).
    return tuple(value) if isinstance(value, list) else value


_FIT_KEYS = {
    "model", "data", "seed",
    "max_depth", "min_samples_leaf",
    "criterion", "value_mode", "split_rank", "split_decomp",
    "strategy", "tau", "xi",
    "leaf_model", "CP_reg_rank", "Tucker_reg_rank", "intercept",
    "als",
    "n_estimators", "learning_rate", "p_resample",
    "n_trees", "bootstrap", "forest_tau",
    "alpha", "prune_quality", "prune_lae_rank",
    "output_decomp", "output_rank",
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


def _expect(cfg: dict, key: str, types, default=None):
    value = cfg.get(key, default)
    if value is None:
        return None
    if not isinstance(value, types):
        raise ConfigError(f"{key} has the wrong type")
    return value


# The builders below raise ValueError or TypeError for a bad setting; _fit_model
# turns it into a ConfigError (exit 2) before any data is touched.


def _build_als(cfg: dict) -> AlsConfig:
    doc = cfg.get("als", {})
    if not isinstance(doc, dict):
        raise ConfigError("als must be an object")
    _check_keys(doc, {"max_iterations", "rel_tolerance", "seed"}, "als")
    return AlsConfig(
        max_iterations=int(doc.get("max_iterations", 100)),
        rel_tolerance=float(doc.get("rel_tolerance", 1e-6)),
        seed=int(doc.get("seed", 0)),
    )


def _build_leaf(cfg: dict, als: AlsConfig) -> LeafModelSpec:
    kind = _expect(cfg, "leaf_model", str, "mean")
    intercept = _expect(cfg, "intercept", bool, True)
    if kind == "mean":
        return LeafModelSpec(kind="mean", als=als, intercept=intercept)
    if kind not in ("cp", "tucker"):
        raise ConfigError(f"unknown leaf_model {kind!r}")
    key = "CP_reg_rank" if kind == "cp" else "Tucker_reg_rank"
    if cfg.get(key) is None:
        raise ConfigError(f"{kind} leaves need {key}")
    return LeafModelSpec(kind=kind, rank=_as_rank(cfg[key]), als=als, intercept=intercept)


def _build_grow(cfg: dict, seed: int) -> GrowConfig:
    als = _build_als(cfg)
    criterion = SplitCriterion(
        kind=_expect(cfg, "criterion", str, "sse"),
        split_rank=None if "split_rank" not in cfg else _as_rank(cfg["split_rank"]),
        decomp=_expect(cfg, "split_decomp", str, "cp"),
        value_mode=_expect(cfg, "value_mode", str, "observed"),
        als=als,
    )
    strategy = SearchStrategy(
        kind=_expect(cfg, "strategy", str, "exhaustive"),
        tau=float(cfg.get("tau", 1.0)),
        xi=int(cfg.get("xi", 0)),
        seed=seed,
    )
    return GrowConfig(
        max_depth=int(cfg.get("max_depth", 3)),
        min_samples_leaf=int(cfg.get("min_samples_leaf", 5)),
        criterion=criterion,
        strategy=strategy,
        leaf=_build_leaf(cfg, als),
    )


def _build_prune(cfg: dict) -> PruneConfig | None:
    if cfg.get("alpha") is None:
        return None
    return PruneConfig(
        alpha=float(cfg["alpha"]),
        quality=_expect(cfg, "prune_quality", str, "variance"),
        lae_rank=None if "prune_lae_rank" not in cfg else _as_rank(cfg["prune_lae_rank"]),
        als=_build_als(cfg),
    )


def _build_boosting(cfg: dict, seed: int) -> BoostingConfig:
    return BoostingConfig(
        n_estimators=int(cfg.get("n_estimators", 10)),
        learning_rate=float(cfg.get("learning_rate", 0.1)),
        p_resample=float(cfg.get("p_resample", 0.0)),
        tree=_build_grow(cfg, seed),
        prune=_build_prune(cfg),
        seed=seed,
    )


def _validate_fit_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("run config must be a JSON object")
    _check_keys(cfg, _FIT_KEYS, "config")
    if cfg.get("model") not in _MODELS:
        raise ConfigError(f"model must be one of {_MODELS}")


def _load_array(path: str) -> np.ndarray:
    try:
        arr = np.load(path)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    return np.ascontiguousarray(arr, dtype=np.float64)


def _load_data(data) -> tuple[np.ndarray, np.ndarray]:
    """The arrays at the ``x`` and ``y`` paths of a config's ``data`` object."""
    if not isinstance(data, dict) or not all(isinstance(data.get(k), str) for k in ("x", "y")):
        raise ConfigError("data must be an object with 'x' and 'y' paths")
    return _load_array(data["x"]), _load_array(data["y"])


def _save_array(path: str, arr: np.ndarray) -> None:
    np.save(path, np.ascontiguousarray(arr, dtype=np.float64))


def _fit_model(cfg: dict, x: np.ndarray, y: np.ndarray, seed: int, threads: int):
    model_kind = cfg["model"]
    if model_kind in ("tree", "boosting", "forest") and y.ndim != 1:
        raise DataError(f"model {model_kind!r} needs a scalar response, got shape {y.shape}")
    if model_kind in ("entrywise", "lowrank") and y.ndim < 2:
        raise DataError(f"model {model_kind!r} needs a stacked tensor response")

    # configuration problems surface here (exit 2), before any fitting
    try:
        if model_kind == "tree":
            grow_cfg, prune_cfg = _build_grow(cfg, seed), _build_prune(cfg)
        elif model_kind == "boosting":
            boost_cfg = _build_boosting(cfg, seed)
        elif model_kind == "forest":
            forest_cfg = ForestConfig(
                n_trees=int(cfg.get("n_trees", 10)),
                bootstrap=_expect(cfg, "bootstrap", bool, True),
                tau=float(cfg.get("forest_tau", 1.0 / 3.0)),
                tree=_build_grow(cfg, seed),
                seed=seed,
            )
        else:
            out_cfg = OutputConfig(
                approach=model_kind,
                decomp=_expect(cfg, "output_decomp", str, "cp"),
                rank=None if "output_rank" not in cfg
                else _as_rank(cfg["output_rank"]),
                boosting=_build_boosting(cfg, seed),
                als=_build_als(cfg),
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    # problems with the arrays themselves surface here (exit 3)
    try:
        if model_kind == "tree":
            tree = grow(x, y, grow_cfg)
            return prune(tree, prune_cfg) if prune_cfg is not None else tree
        if model_kind == "boosting":
            return fit_boosting(x, y, boost_cfg)
        if model_kind == "forest":
            return fit_forest(x, y, forest_cfg)
        fit = fit_entrywise if model_kind == "entrywise" else fit_lowrank
        return fit(x, y, out_cfg, n_threads=threads)
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _predict_model(model, x: np.ndarray) -> np.ndarray:
    try:
        return model.predict(x)
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _metrics_json(y: np.ndarray, pred: np.ndarray) -> str:
    m = evaluate(y, pred)
    return json.dumps({"mse": m.mse, "rmse": m.rmse, "rpe": m.rpe}, sort_keys=True)


def _resolve_threads(value: int | None) -> int:
    if value is not None:
        return max(1, value)
    env = os.environ.get("TT_THREADS")
    if env is not None:
        return max(1, _parse(int, env, "TT_THREADS"))
    return max(1, os.cpu_count() or 1)


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None


def _cmd_synth(args) -> int:
    if args.generator not in GENERATORS:
        raise ConfigError(
            f"unknown generator {args.generator!r}; choose from {sorted(GENERATORS)}"
        )
    try:
        spec = SyntheticSpec(
            generator=args.generator,
            n=args.n,
            noise_sigma=args.noise_sigma,
            noise_scale=args.noise_scale,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    x, y = generate(spec)
    os.makedirs(args.out, exist_ok=True)
    _save_array(os.path.join(args.out, "X.npy"), x)
    name = "y.npy" if y.ndim == 1 else "Y.npy"
    _save_array(os.path.join(args.out, name), y)
    print(json.dumps({"x_shape": list(x.shape), "y_shape": list(y.shape)}, sort_keys=True))
    return 0


def _cmd_fit(args) -> int:
    cfg = _read_json(args.config)
    _validate_fit_config(cfg)
    seed = args.seed if args.seed is not None else _parse(int, cfg.get("seed", 0), "seed")
    threads = _resolve_threads(args.threads)
    x, y = _load_data(cfg.get("data"))
    model = _fit_model(cfg, x, y, seed, threads)
    save_model(model, args.out)
    print(_metrics_json(y, _predict_model(model, x)))
    return 0


def _cmd_predict(args) -> int:
    try:
        model = load_model(args.model)
    except OSError as exc:
        raise DataError(f"cannot read {args.model}: {exc}") from None
    except ValueError as exc:
        raise DataError(f"bad model file {args.model}: {exc}") from None
    x = _load_array(args.x)
    pred = _predict_model(model, x)
    _save_array(args.out, pred)
    if args.y is not None:
        y = _load_array(args.y)
        if y.shape != pred.shape:
            raise DataError(f"reference shape {y.shape} does not match predictions {pred.shape}")
        print(_metrics_json(y, pred))
    return 0


_BENCH_KEYS = {"synthetic", "data", "test_fraction", "base", "sweep"}


def _bench_dataset(cfg: dict, cell: dict):
    if "synthetic" in cfg:
        try:
            doc = dict(cfg["synthetic"])
            if "n" in cell:
                doc["n"] = cell["n"]
            spec = SyntheticSpec(
                generator=doc.get("generator", ""),
                n=int(doc.get("n", 0)),
                noise_sigma=doc.get("noise_sigma"),
                noise_scale=doc.get("noise_scale"),
                seed=int(doc.get("seed", 0)),
            )
            return generate(spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
    if "data" in cfg:
        return _load_data(cfg["data"])
    raise ConfigError("bench config needs 'synthetic' or 'data'")


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

    keys = sorted(sweep)
    metric_cols = [
        "train_mse", "train_rmse", "train_rpe",
        "test_mse", "test_rmse", "test_rpe",
        "fit_seconds", "predict_seconds",
    ]
    rows = []
    for values in itertools.product(*(sweep[k] for k in keys)):
        cell = dict(zip(keys, values))
        run = {**base, **{k: v for k, v in cell.items() if k != "n"}}
        run.setdefault("model", "tree")
        _check_keys(run, _FIT_KEYS - {"data"}, "config")
        if run["model"] not in _MODELS:
            raise ConfigError(f"model must be one of {_MODELS}")
        x, y = _bench_dataset(cfg, cell)
        seed = _parse(int, run.get("seed", 0), "seed")
        x_train, y_train, x_test, y_test = train_test_split(x, y, 1.0 - fraction, seed)
        t0 = time.perf_counter()
        model = _fit_model(run, x_train, y_train, seed, threads)
        fit_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        pred_train = _predict_model(model, x_train)
        pred_test = _predict_model(model, x_test)
        predict_seconds = time.perf_counter() - t0
        mt = evaluate(y_train, pred_train)
        me = evaluate(y_test, pred_test)
        rows.append(
            {**{k: json.dumps(cell[k]) if isinstance(cell[k], list) else cell[k] for k in keys},
             "train_mse": mt.mse, "train_rmse": mt.rmse, "train_rpe": mt.rpe,
             "test_mse": me.mse, "test_rmse": me.rmse, "test_rpe": me.rpe,
             "fit_seconds": fit_seconds, "predict_seconds": predict_seconds}
        )

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys + metric_cols)
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
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
