"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <k> PASS`` line (visible with
``pytest -s``) after its assertions hold, so the suite doubles as a
checklist.  Criteria with stated runtime budgets assert them.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from tensortree._rng import make_rng
from tensortree.data import SyntheticSpec, evaluate, generate, piecewise_target
from tensortree.decomposition import (
    AlsConfig,
    approximation_error,
    cp_als,
    tucker_als,
)
from tensortree.ensemble import BoostingConfig, ForestConfig, fit_boosting, fit_forest
from tensortree.leaf_models import LeafModelSpec, fit_leaf, predict_leaf
from tensortree.serialize import dumps, loads
from tensortree.splitting import (
    SearchStrategy,
    SplitCriterion,
    SplitRule,
    evaluate_split,
    find_best_split,
)
from tensortree.tensor_ops import frobenius_norm, mode_product, outer
from tensortree.tensor_output import OutputConfig, fit_entrywise, fit_lowrank, predict_tensor
from tensortree.tree import GrowConfig, PruneConfig, grow, prune

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
FAST_ALS = AlsConfig(max_iterations=5, rel_tolerance=1e-7, seed=0)
N_INSTANCES = 200

CRITERIA = [
    ("sse", "observed"), ("sse", "mean"),
    ("lae", "observed"), ("lae", "mean"),
    ("lre", "observed"), ("lre", "mean"),
]


def announce(k, message):
    print(f"\nACCEPTANCE {k} PASS: {message}")


def search_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 15))
    d1 = int(rng.integers(2, 4))
    d2 = int(rng.integers(2, 4))
    x = rng.uniform(-1.0, 1.0, size=(n, d1, d2))
    y = rng.normal(size=n)
    rank = int(rng.integers(1, 3))
    return x, y, rank


def criterion_for(kind, value_mode, rank):
    return SplitCriterion(
        kind=kind,
        split_rank=None if kind == "sse" else rank,
        value_mode=value_mode,
        als=FAST_ALS,
    )


def leaf_for(kind, rank):
    return LeafModelSpec(kind="cp", rank=rank, als=FAST_ALS) if kind == "lre" else None


def enumerate_best(x, y, criterion, leaf):
    """Independent brute force over every coordinate and threshold."""
    best = None
    for coords in sorted(np.ndindex(*x.shape[1:])):
        col = x[(slice(None),) + coords]
        thresholds = sorted(set(col.tolist())) if criterion.value_mode == "observed" else [col.mean()]
        for thr in thresholds:
            n_left = int((col <= thr).sum())
            if n_left == 0 or n_left == len(col):
                continue
            rule = SplitRule(coords, float(thr))
            if criterion.kind == "sse":
                loss = evaluate_split(x, y, rule, criterion)
            elif criterion.kind == "lae":
                loss = evaluate_split(x, None, rule, criterion)
            else:
                loss = evaluate_split(x, y, rule, criterion, leaf)
            if math.isinf(loss):
                continue
            key = (loss, coords, float(thr))
            if best is None or key < best[0]:
                best = (key, rule)
    return best


@pytest.fixture(scope="module")
def exhaustive_results():
    """Exhaustive-search results shared by criteria 1 and 2."""
    results = {}
    for i in range(N_INSTANCES):
        x, y, rank = search_instance(10_000 + i)
        for kind, vm in CRITERIA:
            crit = criterion_for(kind, vm, rank)
            leaf = leaf_for(kind, rank)
            results[(i, kind, vm)] = (x, y, rank, find_best_split(x, y, crit, SearchStrategy(), leaf))
    return results


@pytest.mark.slow
def test_criterion_01_split_search_oracle_equivalence(exhaustive_results):
    start = time.perf_counter()
    checked = 0
    for (i, kind, vm), (x, y, rank, got) in exhaustive_results.items():
        crit = criterion_for(kind, vm, rank)
        leaf = leaf_for(kind, rank)
        want = enumerate_best(x, y, crit, leaf)
        if want is None:
            assert got is None
            continue
        assert got.rule == want[1], (i, kind, vm)
        assert got.loss == pytest.approx(want[0][0], abs=1e-9)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    announce(1, f"exhaustive search matches the brute-force enumerator on "
                f"{N_INSTANCES} instances x 6 criterion modes ({checked} rules, {elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_02_reduction_identities(exhaustive_results):
    start = time.perf_counter()
    for (i, kind, vm), (x, y, rank, exhaustive) in exhaustive_results.items():
        crit = criterion_for(kind, vm, rank)
        leaf = leaf_for(kind, rank)
        ls = find_best_split(
            x, y, crit, SearchStrategy(kind="leverage", tau=1.0, seed=17 * i + 1), leaf
        )
        bb = find_best_split(x, y, crit, SearchStrategy(kind="bb", xi=0), leaf)
        if exhaustive is None:
            assert ls is None and bb is None
        else:
            assert ls.rule == exhaustive.rule, (i, kind, vm)
            assert bb.rule == exhaustive.rule, (i, kind, vm)
            assert ls.loss == exhaustive.loss
            assert bb.loss == exhaustive.loss
    elapsed = time.perf_counter() - start
    announce(2, f"leverage(tau=1) and branch-and-bound(xi=0) reproduce exhaustive rules "
                f"exactly on all {N_INSTANCES} instances ({elapsed:.0f}s)")


def test_criterion_03_depth_zero_special_case():
    worst = 0.0
    for i in range(20):
        rng = make_rng(20_000 + i)
        n = int(rng.integers(40, 80))
        x = rng.uniform(-1, 1, size=(n, 4, 3))
        y = rng.normal(size=n)
        for spec in (
            LeafModelSpec(kind="cp", rank=2, als=AlsConfig(max_iterations=30, seed=i)),
            LeafModelSpec(kind="tucker", rank=2, als=AlsConfig(max_iterations=30, seed=i)),
        ):
            tree = grow(x, y, GrowConfig(max_depth=0, leaf=spec))
            direct = predict_leaf(fit_leaf(x, y, spec), x)
            worst = max(worst, float(np.max(np.abs(tree.predict(x) - direct))))
    assert worst <= 1e-12
    announce(3, f"depth-0 trees equal standalone CP/Tucker regressions "
                f"(max abs deviation {worst:.1e} over 20 datasets)")


@pytest.fixture(scope="module")
def pruning_sweep():
    """Shared sweep for the two clauses of criterion 4 (runtime-bounded)."""
    start = time.perf_counter()
    results = {}
    for max_depth in (2, 3, 4):
        leaves, signal_mses, noisy_mses = [], [], []
        for rep in range(20):
            x, y = generate(SyntheticSpec("prune_fn", n=500, seed=40_000 + rep))
            x_test, y_test = generate(SyntheticSpec("prune_fn", n=500, seed=41_000 + rep))
            cfg = GrowConfig(
                max_depth=max_depth,
                min_samples_leaf=5,
                criterion=SplitCriterion(kind="sse"),
                leaf=LeafModelSpec(kind="mean"),
            )
            pruned = prune(grow(x, y, cfg), PruneConfig(alpha=0.1, quality="variance"))
            leaves.append(pruned.n_leaves)
            pred = pruned.predict(x_test)
            signal_mses.append(float(np.mean((pred - piecewise_target(x_test)) ** 2)))
            noisy_mses.append(float(np.mean((pred - y_test) ** 2)))
        results[max_depth] = (leaves, signal_mses, noisy_mses)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    return results


def test_criterion_04a_pruning_leaf_structure(pruning_sweep):
    report = []
    for max_depth, (leaves, _, _) in pruning_sweep.items():
        frac = float(np.mean([c in (3, 4) for c in leaves]))
        report.append(f"depth={max_depth}: {frac:.0%} of replicates prune to 3-4 leaves")
        assert frac >= 0.8, f"max_depth={max_depth}: only {frac:.0%} in 3-4 leaves"
    announce("4a", "; ".join(report))


def test_criterion_04b_pruning_out_of_sample_mse(pruning_sweep):
    # Stated bound: out-of-sample MSE <= 0.15 (noise floor 0.1 + 50%).
    # The pruned trees recover the true split structure (thresholds
    # within ~0.005 of the 0.4 / 0.65 boundaries), but test points
    # falling in the gap between the best observed-value threshold and
    # the true discontinuity are misrouted across level jumps of 6 or 9,
    # costing ~65/n in expected MSE (~0.13 at n=500) before the noise
    # floor.  That makes the 0.15 bound unattainable in expectation for
    # any observed-value axis-split tree on this generator; the
    # assertion is kept as specified and the measured values of both
    # readings are reported.  See the decisions ledger for the analysis.
    lines = []
    worst = 0.0
    for max_depth, (_, signal_mses, noisy_mses) in pruning_sweep.items():
        signal = float(np.mean(signal_mses))
        noisy = float(np.mean(noisy_mses))
        worst = max(worst, noisy)
        lines.append(
            f"depth={max_depth}: noisy-target MSE {noisy:.3f}, noiseless-signal MSE {signal:.3f}"
        )
    message = (
        "out-of-sample MSE exceeds the stated 0.15 bound; "
        + "; ".join(lines)
        + " (threshold-gap misrouting floor ~0.13 at n=500 dominates the 0.05 headroom)"
    )
    assert worst <= 0.15, message
    announce("4b", "; ".join(lines))


def test_criterion_05_als_exact_rank_recovery():
    worst_cp = worst_tucker = 0.0
    for seed in range(5):
        rng = np.random.default_rng(50_000 + seed)
        shape = (20, 8, 6)
        rank = 3
        t = np.zeros(shape)
        factors = [rng.normal(size=(d, rank)) for d in shape]
        for r in range(rank):
            t += outer([f[:, r] for f in factors])
        decomp, info = cp_als(t, rank, AlsConfig(max_iterations=100, rel_tolerance=0.0))
        rel = math.sqrt(approximation_error(t, decomp)) / frobenius_norm(t)
        worst_cp = max(worst_cp, rel)
        assert rel < 1e-6
        assert len(info.errors) <= 100
        assert np.all(np.diff(info.errors) <= 1e-10)

        core = rng.normal(size=(3, 2, 2))
        tt = core
        for q, d in enumerate(shape):
            q_mat, _ = np.linalg.qr(rng.normal(size=(d, core.shape[q])))
            tt = mode_product(tt, q_mat, q)
        decomp_t, info_t = tucker_als(tt, (3, 2, 2), AlsConfig(max_iterations=100, rel_tolerance=0.0))
        rel_t = math.sqrt(approximation_error(tt, decomp_t)) / frobenius_norm(tt)
        worst_tucker = max(worst_tucker, rel_t)
        assert rel_t < 1e-6
        assert np.all(np.diff(info_t.errors) <= 1e-10)
    announce(5, f"exact-rank recovery within 100 iterations, errors non-increasing "
                f"(worst CP {worst_cp:.1e}, worst Tucker {worst_tucker:.1e})")


def test_criterion_06_boosting_mse_non_increasing():
    for i in range(20):
        rng = make_rng(60_000 + i)
        n = int(rng.integers(60, 140))
        x = rng.uniform(-1, 1, size=(n, 3, 3))
        y = np.where(x[:, 0, 0] >= 0, 4.0, -4.0) + rng.normal(0, 0.5, n)
        cfg = BoostingConfig(
            n_estimators=10,
            learning_rate=0.1,
            p_resample=0.0,
            tree=GrowConfig(max_depth=2, criterion=SplitCriterion(kind="sse"),
                            leaf=LeafModelSpec(kind="mean")),
            seed=i,
        )
        model = fit_boosting(x, y, cfg)
        assert len(model.train_mse) == 10
        assert np.all(np.diff(model.train_mse) <= 1e-10), f"dataset {i}"
    announce(6, "training MSE non-increasing over 10 stages on 20 datasets "
                "(p_resample=0, mean leaves, tolerance 1e-10)")


def test_criterion_07_tensor_on_tensor_desk_scale():
    start = time.perf_counter()
    x_train, y_train = generate(SyntheticSpec("table2_linear", n=500, seed=70))
    x_test, y_test = generate(SyntheticSpec("table2_linear", n=500, seed=71))
    boosting = BoostingConfig(
        n_estimators=10,
        learning_rate=0.1,
        tree=GrowConfig(
            max_depth=3,
            min_samples_leaf=5,
            criterion=SplitCriterion(kind="sse"),
            leaf=LeafModelSpec(kind="cp", rank=3, als=AlsConfig(max_iterations=25)),
        ),
        prune=PruneConfig(alpha=0.01, quality="tensor_loss"),
        seed=7,
    )
    entrywise = fit_entrywise(x_train, y_train, OutputConfig(approach="entrywise", boosting=boosting))
    rpe_entry = evaluate(y_test, predict_tensor(entrywise, x_test)).rpe
    lowrank = fit_lowrank(
        x_train, y_train, OutputConfig(approach="lowrank", decomp="cp", rank=3, boosting=boosting)
    )
    rpe_low = evaluate(y_test, predict_tensor(lowrank, x_test)).rpe
    elapsed = time.perf_counter() - start
    assert rpe_entry < 0.5
    assert rpe_low < 0.5
    assert rpe_low <= rpe_entry + 0.05
    assert elapsed < 600.0
    announce(7, f"linear generator test RPE: entrywise {rpe_entry:.3f}, lowrank {rpe_low:.3f} "
                f"(both < 0.5, ordering holds, {elapsed:.0f}s)")


def scaling_dataset(n, seed):
    rng = make_rng(80_000 + seed)
    x = rng.uniform(-1, 1, size=(n, 5, 4))
    y = (8.0 * np.sign(x[:, 0, 1]) + 3.0 * np.sign(x[:, 2, 3])
         + 1.0 * np.sign(x[:, 1, 0]) + rng.normal(0, 0.1, n))
    return x, y


def test_criterion_08_scaling_subquadratic():
    cfg = GrowConfig(
        max_depth=3,
        min_samples_leaf=5,
        criterion=SplitCriterion(kind="sse"),
        leaf=LeafModelSpec(kind="mean"),
    )
    times = {}
    depths = {}
    for n in (1000, 2000, 4000, 8000):
        best = math.inf
        for rep in range(3):
            x, y = scaling_dataset(n, seed=rep)
            t0 = time.perf_counter()
            tree = grow(x, y, cfg)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
        depths[n] = tree.depth()
    assert depths[8000] == 3  # the timing exercises full-depth growth
    ratio = times[8000] / times[1000]
    assert ratio < 16.0
    announce(8, f"fit time n=1000..8000: " +
             ", ".join(f"{n}:{times[n] * 1e3:.1f}ms" for n in times) +
             f"; ratio {ratio:.1f} < 16")


def _random_models(count):
    rng = make_rng(90_000)
    tree_cfgs = [
        LeafModelSpec(kind="mean"),
        LeafModelSpec(kind="cp", rank=2, als=AlsConfig(max_iterations=10)),
        LeafModelSpec(kind="tucker", rank=2, als=AlsConfig(max_iterations=10)),
    ]
    made = 0
    while made < count:
        seed = 91_000 + made
        local = make_rng(seed)
        n = int(local.integers(40, 70))
        x = local.uniform(-1, 1, size=(n, 3, 3))
        y = np.where(x[:, 0, 0] >= 0, 3.0, -2.0) + local.normal(0, 0.3, n)
        grow_cfg = GrowConfig(
            max_depth=int(local.integers(1, 3)),
            criterion=SplitCriterion(kind="sse"),
            leaf=tree_cfgs[made % 3],
        )
        bucket = made % 5
        if bucket in (0, 1):
            model = grow(x, y, grow_cfg)
        elif bucket == 2:
            model = fit_boosting(x, y, BoostingConfig(n_estimators=2, tree=grow_cfg, seed=seed))
        elif bucket == 3:
            model = fit_forest(x, y, ForestConfig(n_trees=2, tree=grow_cfg, seed=seed))
        else:
            yy = np.column_stack([y, -y, y * 0.5])
            out_cfg = OutputConfig(
                approach="lowrank" if made % 2 else "entrywise",
                decomp="cp",
                rank=2,
                boosting=BoostingConfig(n_estimators=2, tree=grow_cfg, seed=seed),
            )
            fitter = fit_lowrank if made % 2 else fit_entrywise
            model = fitter(x, yy, out_cfg)
        made += 1
        yield model, x[:12]


def test_criterion_09_serialization_roundtrip():
    checked = 0
    for model, probe in _random_models(100):
        restored = loads(dumps(model))
        if hasattr(model, "predict"):
            before, after = model.predict(probe), restored.predict(probe)
        else:
            before, after = predict_tensor(model, probe), predict_tensor(restored, probe)
        assert np.array_equal(before, after), f"model {checked} predictions changed"
        checked += 1
    assert checked == 100
    announce(9, "100 fitted models round-trip through JSON with bitwise-identical predictions")


def _run_cli(workdir, *args, env_extra=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "tensortree", *args],
        cwd=workdir, env=env, capture_output=True, text=True,
    )


def test_criterion_10_cli_determinism(tmp_path):
    res = _run_cli(tmp_path, "synth", "--generator", "prune_fn", "--n", "150",
                   "--seed", "2", "--out", "data")
    assert res.returncode == 0, res.stderr
    res = _run_cli(tmp_path, "synth", "--generator", "table2_linear", "--n", "80",
                   "--seed", "2", "--out", "tdata")
    assert res.returncode == 0, res.stderr

    scalar_cfg = tmp_path / "scalar.json"
    scalar_cfg.write_text(json.dumps({
        "model": "boosting", "data": {"x": "data/X.npy", "y": "data/y.npy"},
        "seed": 4, "n_estimators": 3, "max_depth": 2, "leaf_model": "cp",
        "CP_reg_rank": 2, "alpha": 0.1, "prune_quality": "tensor_loss",
    }))
    tensor_cfg = tmp_path / "tensor.json"
    tensor_cfg.write_text(json.dumps({
        "model": "entrywise", "data": {"x": "tdata/X.npy", "y": "tdata/Y.npy"},
        "seed": 4, "n_estimators": 2, "max_depth": 1, "leaf_model": "mean",
    }))

    for name, cfg in (("scalar", scalar_cfg), ("tensor", tensor_cfg)):
        outputs = []
        for tag, threads in (("a", "1"), ("b", "3"), ("c", "1")):
            out = f"{name}_{tag}.json"
            res = _run_cli(tmp_path, "fit", "--config", str(cfg), "--out", out,
                           "--threads", threads)
            assert res.returncode == 0, res.stderr
            outputs.append((tmp_path / out).read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], f"{name} model files differ"
    announce(10, "fit outputs are byte-identical across repeats and --threads values")
