"""The four benchmark workloads.

Each workload is one closed-loop caller in one process: it fits its
models, serializes them, then scores a held-out batch, and only then
starts the next iteration.  Inputs are generated from the run seed; the
library only ever sees the generated arrays (model seeds are fixed).

A workload builds ``REPLICAS`` replicas: training sets drawn from the
seed that share one test batch.  Iterations cycle through them, and a
run's timings average over the replicas, so one seed's draw of a tree's
shape moves them little.

Why each workload exists (see README.md for the metrics each should move):

* ``sse_ensemble`` - boosting and a forest on a 4000-row (4,4,4) stack.
  The ``sse`` prefix scan, tree routing and the ensemble loops do all the
  work; no ALS runs, so leaf or ALS gains must show no change here.  The
  forest's per-tree bootstrap copies make it the memory workload.
* ``lre_tree`` - an ``lre`` tree, where a CP regression scores every
  candidate rule: leaf-model fitting is almost the whole cost, so a bound
  that skips fits or a cheaper leaf solve shows here and nowhere else.
* ``lae_tree`` - an ``lae`` tree with Tucker split rank, mean thresholds
  and the branch-and-bound walk: HOOI fits on 4-mode child stacks
  dominate, so ``decomposition`` and ``tensor_ops`` are measured here.
* ``tensor_output`` - entrywise and low-rank tensor-output fits through
  the in-process CLI on a 2-worker pool: 18 small boosting jobs on one
  shared input, plus the CLI's NPY and JSON I/O.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from tensortree import cli, data, ensemble, serialize, tree
from tensortree.decomposition import AlsConfig
from tensortree.leaf_models import LeafModelSpec
from tensortree.splitting import SearchStrategy, SplitCriterion

TEST_ROWS = 50_000
REPLICAS = 4
CLI_THREADS = 2
# Warm-up inputs come from this fixed seed, not the run seed, so that
# set-up does the same work on every seed.
WARMUP_SEED = 0


@dataclass
class Model:
    """One fitted model of an iteration: a fit op, then a predict op."""

    name: str
    fit: Callable[[], Any]
    predict: Callable[[Any], np.ndarray]
    # Untimed step between the two ops (serialization for library models).
    publish: Callable[[Any], Any] = lambda handle: handle
    # Times the predict op scores the batch, each time from the published
    # model; short predictions are repeated so that timer and scheduler
    # jitter stays small next to them.
    passes: int = 1


@dataclass
class Case:
    """One replica of a workload: a training set and the models fitted on it."""

    models: list[Model]
    y_test: np.ndarray
    # Checks run after the timed phase; each returns (operations, failure messages).
    checks: list[Callable[[], tuple[int, list[str]]]] = field(default_factory=list)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)]


def _data(generator: str, n: int, seed: int, **noise):
    return data.generate(data.SyntheticSpec(generator=generator, n=n, seed=seed, **noise))


def _library_model(name: str, fit: Callable[[], Any], x_test: np.ndarray, passes: int) -> Model:
    return Model(
        name=name,
        fit=fit,
        publish=lambda model: serialize.dumps(model),
        predict=lambda text: serialize.loads(text).predict(x_test),
        passes=passes,
    )


def _tree_cases(name, generator, n_train, passes, seed, grow_cfg, prune_cfg,
                **noise) -> list[Case]:
    """One pruned tree per replica, scored on a shared test batch."""
    *train_seeds, test_seed = _seeds(seed, REPLICAS + 1)
    x_test, y_test = _data(generator, TEST_ROWS, test_seed, **noise)

    def case(train_seed: int) -> Case:
        x, y = _data(generator, n_train, train_seed, **noise)
        fit = lambda: tree.prune(tree.grow(x, y, grow_cfg), prune_cfg)  # noqa: E731
        return Case(models=[_library_model(name, fit, x_test, passes)], y_test=y_test)

    return [case(s) for s in train_seeds]


def sse_ensemble(seed: int, workdir: str) -> list[Case]:
    *train_seeds, test_seed = _seeds(seed, REPLICAS + 1)
    x_test, y_test = _data("prune_fn", TEST_ROWS, test_seed)
    boost = ensemble.BoostingConfig(
        n_estimators=10, learning_rate=0.1, tree=tree.GrowConfig(max_depth=4))
    forest = ensemble.ForestConfig(n_trees=20, tau=1.0 / 3.0, tree=tree.GrowConfig(max_depth=6))

    def case(train_seed: int) -> Case:
        x, y = _data("prune_fn", 4000, train_seed)
        fit_boost = lambda: ensemble.fit_boosting(x, y, boost)  # noqa: E731
        fit_forest = lambda: ensemble.fit_forest(x, y, forest)  # noqa: E731
        return Case(
            models=[_library_model("boosting", fit_boost, x_test, passes=4),
                    _library_model("forest", fit_forest, x_test, passes=4)],
            y_test=y_test,
        )

    cases = [case(s) for s in train_seeds]
    # warm-up: one short stage of each fitter on a small stack
    x, y = _data("prune_fn", 400, WARMUP_SEED)
    ensemble.fit_boosting(x, y, replace(boost, n_estimators=1))
    ensemble.fit_forest(x, y, replace(forest, n_trees=1)).predict(x[:100])
    return cases


def lre_tree(seed: int, workdir: str) -> list[Case]:
    als = AlsConfig(max_iterations=10)
    grow_cfg = tree.GrowConfig(
        max_depth=2,
        min_samples_leaf=10,
        criterion=SplitCriterion(kind="lre", split_rank=2, decomp="cp", als=als),
    )
    prune_cfg = tree.PruneConfig(alpha=0.1, quality="tensor_loss")
    cases = _tree_cases("lre", "fig5_interaction", 50, 64, seed, grow_cfg, prune_cfg,
                        noise_sigma=0.1)
    x, y = _data("fig5_interaction", 20, WARMUP_SEED, noise_sigma=0.1)
    tree.grow(x, y, replace(grow_cfg, max_depth=1)).predict(x)
    return cases


def lae_tree(seed: int, workdir: str) -> list[Case]:
    als = AlsConfig(max_iterations=5)
    grow_cfg = tree.GrowConfig(
        max_depth=2,
        min_samples_leaf=10,
        criterion=SplitCriterion(
            kind="lae", split_rank=2, decomp="tucker", value_mode="mean", als=als),
        strategy=SearchStrategy(kind="bb", xi=0),
        leaf=LeafModelSpec(kind="tucker", rank=2, als=als),
    )
    prune_cfg = tree.PruneConfig(
        alpha=0.1, quality="lae", lae_rank=2, lae_decomp="tucker", als=als)
    cases = _tree_cases("lae", "prune_fn", 400, 32, seed, grow_cfg, prune_cfg)
    x, y = _data("prune_fn", 40, WARMUP_SEED)
    tree.grow(x, y, replace(grow_cfg, max_depth=1)).predict(x)
    return cases


def _run_cli(argv: list[str]) -> None:
    """Call the CLI in process; its stdout report is not part of the result."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tensortree {argv[0]} exited with code {code}")


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _tensor_output_case(data_seed: int, split_seed: int, workdir: str) -> Case:
    x, y = _data("table2_linear", 3000, data_seed)
    x_train, y_train, x_test, y_test = data.train_test_split(x, y, 0.75, split_seed)
    paths = {}
    for name, arr in (("x_train", x_train), ("y_train", y_train), ("x_test", x_test)):
        paths[name] = os.path.join(workdir, f"{name}.npy")
        np.save(paths[name], arr)
    base = {"data": {"x": paths["x_train"], "y": paths["y_train"]},
            "max_depth": 3, "n_estimators": 10, "learning_rate": 0.3}
    configs = {
        "entrywise": {**base, "model": "entrywise"},
        "lowrank": {**base, "model": "lowrank", "output_decomp": "tucker", "output_rank": [3, 3]},
    }
    for name, cfg in configs.items():
        _write_json(os.path.join(workdir, f"{name}.json"), cfg)

    def fit(name: str, threads: int, out: str):
        def run() -> str:
            _run_cli(["fit", "--config", os.path.join(workdir, f"{name}.json"),
                      "--out", out, "--threads", str(threads)])
            return out
        return run

    def predict(model_path: str) -> np.ndarray:
        out = model_path + ".pred.npy"
        _run_cli(["predict", "--model", model_path, "--x", paths["x_test"], "--out", out])
        return np.load(out)

    def same_bytes_at_one_thread() -> tuple[int, list[str]]:
        """Refit at one thread: the model file must not depend on the thread count."""
        failures = []
        for name in configs:
            one = os.path.join(workdir, f"{name}.t1.json")
            fit(name, 1, one)()
            with open(one, "rb") as a, open(os.path.join(workdir, f"{name}.model.json"), "rb") as b:
                if a.read() != b.read():
                    failures.append(f"{name}: model file differs between --threads 1 and 2")
        return len(configs), failures

    return Case(
        models=[Model(name, fit(name, CLI_THREADS, os.path.join(workdir, f"{name}.model.json")),
                      predict, passes=48) for name in configs],
        y_test=y_test,
        checks=[same_bytes_at_one_thread],
    )


def tensor_output(seed: int, workdir: str) -> list[Case]:
    seeds = _seeds(seed, 2 * REPLICAS)
    cases = []
    for r in range(REPLICAS):
        replica_dir = os.path.join(workdir, f"replica{r}")
        os.makedirs(replica_dir, exist_ok=True)
        cases.append(_tensor_output_case(seeds[2 * r], seeds[2 * r + 1], replica_dir))
    # warm-up: the cheaper of the two fits, through the CLI and the pool
    warmup_dir = os.path.join(workdir, "warmup")
    os.makedirs(warmup_dir, exist_ok=True)
    _tensor_output_case(WARMUP_SEED, WARMUP_SEED, warmup_dir).models[1].fit()
    return cases


WORKLOADS: dict[str, Callable[[int, str], list[Case]]] = {
    "sse_ensemble": sse_ensemble,
    "lre_tree": lre_tree,
    "lae_tree": lae_tree,
    "tensor_output": tensor_output,
}
