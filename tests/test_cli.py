"""Command-line interface: exit codes, file formats, determinism."""

import json
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from tensortree import cli, ensemble, serialize, tensor_output
from tensortree._rng import make_rng
from tensortree.data import GENERATORS
from tensortree.decomposition import AlsConfig
from tensortree.ensemble import BoostingConfig, ForestConfig
from tensortree.leaf_models import LeafModelSpec
from tensortree.splitting import SearchStrategy, SplitCriterion
from tensortree.tensor_output import OutputConfig, fit_lowrank
from tensortree.tree import GrowConfig, PruneConfig, grow, prune

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def run_cli(*args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "tensortree", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestSynth:
    def test_prune_fn_shapes(self, workdir):
        res = run_cli("synth", "--generator", "prune_fn", "--n", "500", "--seed", "1",
                      "--out", "data", cwd=workdir)
        assert res.returncode == 0, res.stderr
        x = np.load(workdir / "data" / "X.npy")
        y = np.load(workdir / "data" / "y.npy")
        assert x.shape == (500, 4, 4, 4) and y.shape == (500,)
        assert x.dtype == np.float64 and x.flags["C_CONTIGUOUS"]

    def test_unknown_generator_exit_2(self, workdir):
        res = run_cli("synth", "--generator", "nope", "--n", "10", "--out", "d", cwd=workdir)
        assert res.returncode == 2
        assert "unknown generator" in res.stderr

    def test_seed_repeat_identical_bytes(self, workdir):
        for out in ("a", "b"):
            res = run_cli("synth", "--generator", "fig5_interaction", "--n", "50",
                          "--seed", "9", "--out", out, cwd=workdir)
            assert res.returncode == 0
        assert (workdir / "a" / "X.npy").read_bytes() == (workdir / "b" / "X.npy").read_bytes()
        assert (workdir / "a" / "y.npy").read_bytes() == (workdir / "b" / "y.npy").read_bytes()

    @pytest.mark.parametrize("option", ["--noise-scale", "--noise-sigma"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_exit_2(self, workdir, option, value):
        res = run_cli("synth", "--generator", "table2_linear", "--n", "20", option, value,
                      "--out", "d", cwd=workdir)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert not (workdir / "d").exists()

    def test_tensor_output_file_name(self, workdir):
        res = run_cli("synth", "--generator", "table2_linear", "--n", "20", "--out", "d",
                      cwd=workdir)
        assert res.returncode == 0
        assert (workdir / "d" / "Y.npy").exists()


class TestFit:
    def make_data(self, workdir, n=120):
        run_cli("synth", "--generator", "prune_fn", "--n", str(n), "--seed", "3",
                "--out", "data", cwd=workdir)

    def test_constant_response_reports_zero_mse(self, workdir):
        x = np.zeros((20, 2, 2))
        y = np.full(20, 5.0)
        np.save(workdir / "X.npy", x)
        np.save(workdir / "y.npy", y)
        cfg = write_config(workdir / "cfg.json", {
            "model": "tree", "data": {"x": "X.npy", "y": "y.npy"},
            "max_depth": 0, "leaf_model": "mean",
        })
        res = run_cli("fit", "--config", cfg, "--out", "m.json", cwd=workdir)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["mse"] == 0.0

    def test_refit_byte_identical(self, workdir):
        self.make_data(workdir)
        cfg = write_config(workdir / "cfg.json", {
            "model": "boosting", "data": {"x": "data/X.npy", "y": "data/y.npy"},
            "seed": 5, "n_estimators": 3, "learning_rate": 0.2,
            "max_depth": 2, "leaf_model": "mean",
        })
        for out in ("m1.json", "m2.json"):
            res = run_cli("fit", "--config", cfg, "--out", out, cwd=workdir)
            assert res.returncode == 0, res.stderr
        assert (workdir / "m1.json").read_bytes() == (workdir / "m2.json").read_bytes()

    @pytest.mark.parametrize("run", [
        {"model": "forest", "n_trees": 4, "forest_tau": 0.5, "max_depth": 4},
        {"model": "boosting", "n_estimators": 4, "p_resample": 0.7, "max_depth": 3},
    ], ids=["forest", "boosting-resampled"])
    def test_rank_key_sorts_write_the_float_sort_bytes(self, tmp_path, capsys, monkeypatch, run):
        rng = make_rng(12)
        x = np.round(rng.normal(size=(150, 3, 3)) * 2) / 2  # ties between distinct rows
        x[:, 0, 1] = np.where(x[:, 0, 1] > 0, 1.0, np.where(x[:, 0, 1] < 0, -1.0, -0.0))
        x[:, 2, 2] = 0.0
        x[::2, 1, 0] = 0.0
        x[1::4, 1, 0] = -0.0
        np.save(tmp_path / "X.npy", x)
        np.save(tmp_path / "y.npy", x[:, 0, 0] - 2.0 * (x[:, 1, 0] < 0.0) + rng.normal(0.0, 0.1, 150))
        cfg = write_config(tmp_path / "cfg.json", {
            **run, "seed": 3, "min_samples_leaf": 2,
            "data": {"x": str(tmp_path / "X.npy"), "y": str(tmp_path / "y.npy")}})
        docs = []
        for reference in (False, True):
            if reference:  # every tree sorts its own float columns
                monkeypatch.setattr(ensemble, "_RankedOrders", lambda ranks, rows: {})
            out = tmp_path / f"m{int(reference)}.json"
            assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 0
            docs.append(out.read_bytes())
        capsys.readouterr()
        assert docs[0] == docs[1]

    def test_missing_file_exit_3(self, workdir):
        cfg = write_config(workdir / "cfg.json", {
            "model": "tree", "data": {"x": "absent.npy", "y": "absent.npy"},
        })
        res = run_cli("fit", "--config", cfg, "--out", "m.json", cwd=workdir)
        assert res.returncode == 3

    def test_schema_violation_exit_2(self, workdir):
        cfg = write_config(workdir / "cfg.json", {
            "model": "tree", "data": {"x": "X.npy", "y": "y.npy"}, "bogus_key": 1,
        })
        res = run_cli("fit", "--config", cfg, "--out", "m.json", cwd=workdir)
        assert res.returncode == 2

    def test_unknown_model_exit_2(self, workdir):
        cfg = write_config(workdir / "cfg.json", {
            "model": "svm", "data": {"x": "X.npy", "y": "y.npy"},
        })
        res = run_cli("fit", "--config", cfg, "--out", "m.json", cwd=workdir)
        assert res.returncode == 2


class TestPredict:
    def test_roundtrip_matches_training_metrics(self, workdir):
        run_cli("synth", "--generator", "prune_fn", "--n", "100", "--seed", "4",
                "--out", "data", cwd=workdir)
        cfg = write_config(workdir / "cfg.json", {
            "model": "tree", "data": {"x": "data/X.npy", "y": "data/y.npy"},
            "max_depth": 2, "leaf_model": "mean", "alpha": 0.1,
        })
        fit = run_cli("fit", "--config", cfg, "--out", "m.json", cwd=workdir)
        assert fit.returncode == 0, fit.stderr
        pred = run_cli("predict", "--model", "m.json", "--x", "data/X.npy",
                       "--y", "data/y.npy", "--out", "p.npy", cwd=workdir)
        assert pred.returncode == 0, pred.stderr
        fit_metrics = json.loads(fit.stdout)
        pred_metrics = json.loads(pred.stdout)
        assert fit_metrics == pred_metrics
        assert set(pred_metrics) == {"mse", "rmse", "rpe"}
        assert np.load(workdir / "p.npy").shape == (100,)

    def test_shape_mismatch_exit_3(self, workdir):
        run_cli("synth", "--generator", "prune_fn", "--n", "30", "--seed", "5",
                "--out", "data", cwd=workdir)
        cfg = write_config(workdir / "cfg.json", {
            "model": "tree", "data": {"x": "data/X.npy", "y": "data/y.npy"},
            "max_depth": 1, "leaf_model": "mean",
        })
        assert run_cli("fit", "--config", cfg, "--out", "m.json", cwd=workdir).returncode == 0
        np.save(workdir / "bad.npy", np.zeros((5, 3, 3)))
        res = run_cli("predict", "--model", "m.json", "--x", "bad.npy", "--out", "p.npy",
                      cwd=workdir)
        assert res.returncode == 3

    @pytest.mark.parametrize("edit", ["coords", "version"])
    def test_invalid_model_document_exit_3(self, workdir, edit):
        run_cli("synth", "--generator", "prune_fn", "--n", "60", "--seed", "6",
                "--out", "data", cwd=workdir)
        cfg = write_config(workdir / "cfg.json", {
            "model": "tree", "data": {"x": "data/X.npy", "y": "data/y.npy"},
            "max_depth": 1, "leaf_model": "mean",
        })
        assert run_cli("fit", "--config", cfg, "--out", "m.json", cwd=workdir).returncode == 0
        doc = json.loads((workdir / "m.json").read_text())
        if edit == "coords":
            assert "rule" in doc["node"]
            doc["node"]["rule"]["coords"] = [9, 9, 9]
        else:
            doc["version"] = 99
        (workdir / "m.json").write_text(json.dumps(doc))
        res = run_cli("predict", "--model", "m.json", "--x", "data/X.npy", "--out", "p.npy",
                      cwd=workdir)
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert not (workdir / "p.npy").exists()

    def test_malformed_model_document_exit_3(self, workdir, malformed_tree_doc):
        (workdir / "m.json").write_text(json.dumps(malformed_tree_doc))
        np.save(workdir / "X.npy", np.zeros((5, 2, 2)))
        res = run_cli("predict", "--model", "m.json", "--x", "X.npy", "--out", "p.npy",
                      cwd=workdir)
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert not (workdir / "p.npy").exists()


class TestBench:
    def test_two_by_two_sweep(self, workdir):
        cfg = write_config(workdir / "bench.json", {
            "synthetic": {"generator": "prune_fn", "n": 80, "seed": 2},
            "test_fraction": 0.25,
            "base": {"criterion": "sse", "leaf_model": "mean"},
            "sweep": {"max_depth": [1, 2], "seed": [0, 1]},
        })
        res = run_cli("bench", "--config", cfg, "--out", "sweep.csv", cwd=workdir)
        assert res.returncode == 0, res.stderr
        lines = (workdir / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        header = lines[0].split(",")
        assert header[:2] == ["max_depth", "seed"]
        for needed in ("train_mse", "test_rpe", "fit_seconds", "predict_seconds"):
            assert needed in header

    def test_timing_nonnegative_and_repeated_seed_rows_equal(self, workdir):
        cfg = write_config(workdir / "bench.json", {
            "synthetic": {"generator": "prune_fn", "n": 60, "seed": 7},
            "base": {"criterion": "sse", "leaf_model": "mean", "max_depth": 2},
            "sweep": {"seed": [3, 3]},
        })
        res = run_cli("bench", "--config", cfg, "--out", "sweep.csv", cwd=workdir)
        assert res.returncode == 0, res.stderr
        lines = (workdir / "sweep.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        metric_keys = [k for k in header if k not in ("fit_seconds", "predict_seconds")]
        assert [rows[0][k] for k in metric_keys] == [rows[1][k] for k in metric_keys]
        for row in rows:
            assert float(row["fit_seconds"]) >= 0.0
            assert float(row["predict_seconds"]) >= 0.0

    def test_bad_sweep_exit_2(self, workdir):
        cfg = write_config(workdir / "bench.json", {
            "synthetic": {"generator": "prune_fn", "n": 30},
            "sweep": {"max_depth": []},
        })
        assert run_cli("bench", "--config", cfg, "--out", "s.csv", cwd=workdir).returncode == 2


class TestThreads:
    def test_tt_threads_env_accepted(self, workdir):
        run_cli("synth", "--generator", "table2_linear", "--n", "40", "--seed", "6",
                "--out", "data", cwd=workdir)
        cfg = write_config(workdir / "cfg.json", {
            "model": "entrywise", "data": {"x": "data/X.npy", "y": "data/Y.npy"},
            "n_estimators": 2, "max_depth": 1, "leaf_model": "mean", "seed": 1,
        })
        env = dict(os.environ, PYTHONPATH=SRC, TT_THREADS="2")
        res = subprocess.run(
            [sys.executable, "-m", "tensortree", "fit", "--config", cfg, "--out", "m_env.json"],
            cwd=workdir, env=env, capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        res2 = run_cli("fit", "--config", cfg, "--out", "m_one.json", "--threads", "1",
                       cwd=workdir)
        assert res2.returncode == 0
        assert (workdir / "m_env.json").read_bytes() == (workdir / "m_one.json").read_bytes()

    def test_default_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("TT_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._resolve_threads(None) == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._resolve_threads(None) == 64
        assert cli._resolve_threads(2) == 2


OUTPUT_CONFIGS = {
    "entrywise": {"model": "entrywise"},
    "lowrank-cp": {"model": "lowrank", "output_decomp": "cp", "output_rank": 2},
    "lowrank-tucker": {"model": "lowrank", "output_decomp": "tucker", "output_rank": [3, 2, 2]},
}


def _fit_output(tmp_path, capsys, config, threads):
    """``cli.main fit`` in process on a (2, 2) output; returns (exit code, stderr, model path)."""
    rng = make_rng(31)
    x = rng.uniform(size=(40, 3, 3))
    y = np.stack([x[:, 0, 0] > 0.5, x[:, 1, 1], x[:, 2, 0] * x[:, 0, 2], x[:, 1, 2] > 0.3],
                 axis=1).reshape(40, 2, 2).astype(float)
    np.save(tmp_path / "X.npy", x)
    np.save(tmp_path / "Y.npy", y)
    cfg = write_config(tmp_path / "cfg.json", {
        **OUTPUT_CONFIGS[config], "n_estimators": 3, "max_depth": 2, "seed": 4,
        "data": {"x": str(tmp_path / "X.npy"), "y": str(tmp_path / "Y.npy")},
    })
    out = tmp_path / f"m{threads}.json"
    code = cli.main(["fit", "--config", cfg, "--out", str(out), "--threads", str(threads)])
    return code, capsys.readouterr().err, out


class TestWorkerProcesses:
    """Tensor-output jobs on forked workers keep the CLI's bytes and exit codes."""

    @pytest.mark.parametrize("config", list(OUTPUT_CONFIGS))
    def test_model_bytes_equal_at_every_thread_count(self, tmp_path, capsys, config):
        docs = set()
        for threads in (1, 2, 3):
            code, err, out = _fit_output(tmp_path, capsys, config, threads)
            assert code == 0, err
            assert multiprocessing.active_children() == []
            docs.add(out.read_bytes())
        assert len(docs) == 1

    @pytest.mark.skipif(sys.platform != "linux", reason="jobs run in process off Linux")
    def test_dead_worker_exit_3(self, tmp_path, capsys, monkeypatch):
        # forked workers inherit the patch
        monkeypatch.setattr(tensor_output, "fit_boosting", lambda *args, **kwargs: os._exit(1))
        code, err, out = _fit_output(tmp_path, capsys, "entrywise", 2)
        assert code == 3
        assert err == "error: a worker process ended before its job finished\n"
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("config", ["entrywise", "lowrank-tucker"])
    def test_job_value_error_exit_3(self, tmp_path, capsys, monkeypatch, config):
        def fail(x, y, cfg, **kwargs):
            raise ValueError("residuals overflowed")

        monkeypatch.setattr(tensor_output, "fit_boosting", fail)
        code, err, out = _fit_output(tmp_path, capsys, config, 2)
        assert code == 3
        assert err == "error: residuals overflowed\n"
        assert not out.exists()
        assert multiprocessing.active_children() == []


class TestRankAndRoutingErrors:
    def test_tuple_cp_leaf_rank_exit_2(self, workdir):
        run_cli("synth", "--generator", "fig5_interaction", "--n", "40", "--seed", "7",
                "--out", "data", cwd=workdir)
        cfg = write_config(workdir / "cfg.json", {
            "model": "tree", "data": {"x": "data/X.npy", "y": "data/y.npy"},
            "max_depth": 1, "leaf_model": "cp", "CP_reg_rank": [2, 2],
        })
        res = run_cli("fit", "--config", cfg, "--out", "m.json", cwd=workdir)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert not (workdir / "m.json").exists()

    def test_non_finite_predict_input_exit_3(self, workdir):
        run_cli("synth", "--generator", "prune_fn", "--n", "60", "--seed", "8",
                "--out", "data", cwd=workdir)
        cfg = write_config(workdir / "cfg.json", {
            "model": "tree", "data": {"x": "data/X.npy", "y": "data/y.npy"},
            "max_depth": 1, "leaf_model": "mean",
        })
        assert run_cli("fit", "--config", cfg, "--out", "m.json", cwd=workdir).returncode == 0
        np.save(workdir / "nan.npy", np.full((5, 4, 4, 4), np.nan))
        res = run_cli("predict", "--model", "m.json", "--x", "nan.npy", "--out", "p.npy",
                      cwd=workdir)
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert not (workdir / "p.npy").exists()


FIT_BASE = {"model": "tree", "data": {"x": "X.npy", "y": "y.npy"}, "max_depth": 1}
BENCH_BASE = {"synthetic": {"generator": "prune_fn", "n": 30}, "sweep": {"max_depth": [1]}}


@pytest.mark.parametrize("command, edit", [
    ("fit", {"max_depth": None}),
    ("fit", {"max_depth": [1]}),
    ("fit", {"als": {"max_iterations": None}}),
    ("fit", {"seed": None}),
    ("fit", {"alpha": [0.1]}),
    ("fit", {"data": {"x": 5, "y": "y.npy"}}),
    ("bench", {"synthetic": {"generator": "prune_fn", "n": None}}),
    ("bench", {"sweep": {"max_depth": [None]}}),
    ("bench", {"test_fraction": None}),
    ("bench", {"test_fraction": 2}),
    ("fit", {"intercept": None}),
    ("fit", {"model": "forest", "bootstrap": None}),
    ("fit", {"max_depth": 1.9}),
    ("fit", {"max_depth": True}),
    ("fit", {"alpha": None}),
    ("fit", {"seed": 1.5}),
    ("fit", {"leaf_model": "cp", "CP_reg_rank": True}),
    ("bench", {"synthetic": {"generator": "prune_fn", "n": 30, "sed": 3}}),
    # json writes these as the NaN and Infinity literals, which json.load reads back
    ("fit", {"alpha": math.nan}),
    ("fit", {"alpha": math.inf}),
    ("fit", {"model": "boosting", "learning_rate": math.nan}),
    ("fit", {"model": "boosting", "learning_rate": -math.inf}),
    ("fit", {"als": {"rel_tolerance": math.nan}}),
    ("bench", {"synthetic": {"generator": "table2_linear", "n": 30, "noise_scale": math.nan}}),
    ("bench", {"sweep": {"alpha": [0.1, math.inf]}}),
    # the split seed is checked before the cell splits its data
    ("bench", {"base": {"seed": 1.5}}),
    ("bench", {"sweep": {"seed": ["x"]}}),
    # a number key takes no string, here as in a run config
    ("bench", {"test_fraction": "0.5"}),
    ("bench", {"synthetic": {"generator": ["prune_fn"], "n": 30}}),
], ids=["max_depth-null", "max_depth-list", "als-null", "seed-null", "alpha-list", "data-int",
        "synthetic-n-null", "sweep-null", "test_fraction-null", "test_fraction-2",
        "intercept-null", "bootstrap-null", "max_depth-float", "max_depth-bool", "alpha-null",
        "seed-float", "cp-rank-bool", "synthetic-misspelled-key", "alpha-nan", "alpha-inf",
        "learning_rate-nan", "learning_rate--inf", "rel_tolerance-nan", "noise_scale-nan",
        "sweep-alpha-inf", "base-seed-float", "sweep-seed-str", "test_fraction-str",
        "synthetic-generator-list"])
def test_bad_config_value_exit_2(workdir, command, edit):
    np.save(workdir / "X.npy", np.zeros((20, 2, 2)))
    np.save(workdir / "y.npy", np.zeros(20))
    cfg = write_config(workdir / "cfg.json", {**(FIT_BASE if command == "fit" else BENCH_BASE),
                                              **edit})
    res = run_cli(command, "--config", cfg, "--out", "out", cwd=workdir)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


# Per run-config key: the keys under which the model reads it, and the kind of
# value it takes.  Each config class checks the value; the CLI passes it on.
KEY_CONTEXTS = {
    "seed": ({}, "int"),
    "max_depth": ({}, "int"),
    "min_samples_leaf": ({}, "int"),
    "criterion": ({}, "string"),
    "value_mode": ({}, "string"),
    "split_rank": ({"criterion": "lae"}, "rank"),
    "split_decomp": ({}, "string"),
    "strategy": ({}, "string"),
    "tau": ({"strategy": "leverage"}, "number"),
    "xi": ({"strategy": "bb"}, "int"),
    "leaf_model": ({}, "string"),
    "CP_reg_rank": ({"leaf_model": "cp"}, "rank"),
    "Tucker_reg_rank": ({"leaf_model": "tucker"}, "rank"),
    "intercept": ({}, "bool"),
    "als.max_iterations": ({}, "int"),
    "als.rel_tolerance": ({}, "number"),
    "als.seed": ({}, "int"),
    "n_estimators": ({"model": "boosting"}, "int"),
    "learning_rate": ({"model": "boosting"}, "number"),
    "p_resample": ({"model": "boosting"}, "number"),
    "n_trees": ({"model": "forest"}, "int"),
    "bootstrap": ({"model": "forest"}, "bool"),
    "forest_tau": ({"model": "forest"}, "number"),
    "alpha": ({}, "number"),
    "prune_quality": ({"alpha": 0.1}, "string"),
    "prune_lae_rank": ({"alpha": 0.1, "prune_quality": "lae"}, "rank"),
    "output_decomp": ({"model": "entrywise"}, "string"),
    "output_rank": ({"model": "lowrank"}, "rank"),
}
# (id, JSON value) probes that every key, or every key of one kind, rejects
WRONG_VALUES = {
    "any": [("str", "x"), ("null", None), ("list", [1.5]), ("object", {"a": 1})],
    "int": [("float", 1.5), ("true", True)],
    "number": [("true", True), ("huge-int", 10 ** 400)],
    "bool": [("one", 1), ("yes", "yes")],
}


def test_key_contexts_cover_every_run_config_key():
    assert set(KEY_CONTEXTS) == set(cli._SETTINGS)


@pytest.mark.parametrize("key, value", [
    pytest.param(key, value, id=f"{key}-{name}")
    for key, (_, kind) in KEY_CONTEXTS.items()
    for name, value in WRONG_VALUES["any"] + WRONG_VALUES.get(kind, [])
])
def test_every_key_rejects_a_wrong_value_exit_2(tmp_path, capsys, key, value):
    context, _ = KEY_CONTEXTS[key]
    run = {"model": "tree", "max_depth": 1, **context}
    tensor = run["model"] in ("entrywise", "lowrank")
    rng = make_rng(5)
    np.save(tmp_path / "X.npy", rng.uniform(size=(20, 2, 2)))
    np.save(tmp_path / "y.npy", rng.normal(size=(20, 2) if tensor else 20))
    run["data"] = {"x": str(tmp_path / "X.npy"), "y": str(tmp_path / "y.npy")}
    if key.startswith("als."):
        run["als"] = {key[len("als."):]: value}
    else:
        run[key] = value
    out = tmp_path / "m.json"
    assert cli.main(["fit", "--config", write_config(tmp_path / "cfg.json", run),
                     "--out", str(out), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def _floats(doc: dict) -> dict:
    return {k: _floats(v) if isinstance(v, dict) else float(v) for k, v in doc.items()}


@pytest.mark.parametrize("run, numbers", [
    ({"model": "boosting", "n_estimators": 3, "strategy": "leverage"},
     {"learning_rate": 1, "p_resample": 1, "tau": 1, "alpha": 0, "als": {"rel_tolerance": 0}}),
    ({"model": "forest", "n_trees": 3}, {"forest_tau": 1}),
], ids=["boosting", "forest"])
def test_json_int_and_float_numbers_write_the_same_model(tmp_path, capsys, run, numbers):
    # the CLI hands a JSON integer to its field unconverted
    rng = make_rng(6)
    x = rng.uniform(size=(40, 2, 2))
    np.save(tmp_path / "X.npy", x)
    np.save(tmp_path / "y.npy", 2.0 * (x[:, 0, 0] > 0.5) + rng.normal(0.0, 0.1, 40))
    run = {**run, "data": {"x": str(tmp_path / "X.npy"), "y": str(tmp_path / "y.npy")},
           "seed": 3, "max_depth": 2, "leaf_model": "cp", "CP_reg_rank": 1}
    models = []
    for name, keys in (("int", numbers), ("float", _floats(numbers))):
        out = tmp_path / f"{name}.json"
        cfg = write_config(tmp_path / f"{name}-cfg.json", {**run, **keys})
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 0
        models.append(out.read_bytes())
    capsys.readouterr()
    assert models[0] == models[1]


def _library_configs():
    """Per model kind: a run config setting every key that kind reads, and the
    library config objects (by fitter name) that the keys must build."""
    als = AlsConfig(max_iterations=3, rel_tolerance=1e-4, seed=2)
    als_doc = {"max_iterations": 3, "rel_tolerance": 1e-4, "seed": 2}
    tree_keys = {
        "seed": 4, "max_depth": 2, "min_samples_leaf": 6, "criterion": "lae",
        "value_mode": "mean", "split_rank": [3, 2, 2], "split_decomp": "tucker",
        "strategy": "leverage", "tau": 0.5, "xi": 1, "leaf_model": "cp", "CP_reg_rank": 1,
        "Tucker_reg_rank": 9, "intercept": False, "als": als_doc,
        "alpha": 0.05, "prune_quality": "lae", "prune_lae_rank": 2,
    }
    tree_grow = GrowConfig(
        max_depth=2, min_samples_leaf=6,
        criterion=SplitCriterion(kind="lae", split_rank=(3, 2, 2), decomp="tucker",
                                 value_mode="mean", als=als),
        strategy=SearchStrategy(kind="leverage", tau=0.5, xi=1, seed=4),
        leaf=LeafModelSpec(kind="cp", rank=1, als=als, intercept=False),
    )
    tree_prune = PruneConfig(alpha=0.05, quality="lae", lae_rank=2, als=als)

    boost_keys = {
        "seed": 7, "n_estimators": 3, "learning_rate": 0.5, "p_resample": 0.5,
        "max_depth": 2, "min_samples_leaf": 4, "criterion": "lre", "value_mode": "mean",
        "split_rank": 1, "split_decomp": "cp", "strategy": "bb", "tau": 1, "xi": 1,
        "leaf_model": "tucker", "CP_reg_rank": 5, "Tucker_reg_rank": [1, 2], "intercept": True,
        "als": als_doc, "alpha": 0.2, "prune_quality": "tensor_loss", "prune_lae_rank": 1,
    }
    boost = BoostingConfig(
        n_estimators=3, learning_rate=0.5, p_resample=0.5, seed=7,
        tree=GrowConfig(
            max_depth=2, min_samples_leaf=4,
            criterion=SplitCriterion(kind="lre", split_rank=1, decomp="cp", value_mode="mean",
                                     als=als),
            strategy=SearchStrategy(kind="bb", tau=1.0, xi=1, seed=7),
            leaf=LeafModelSpec(kind="tucker", rank=(1, 2), als=als, intercept=True),
        ),
        prune=PruneConfig(alpha=0.2, quality="tensor_loss", lae_rank=1, als=als),
    )

    forest_keys = {
        "seed": 8, "n_trees": 3, "bootstrap": False, "forest_tau": 0.5, "max_depth": 2,
        "min_samples_leaf": 4, "criterion": "sse", "value_mode": "observed",
        "strategy": "exhaustive", "leaf_model": "mean", "intercept": False, "als": als_doc,
    }
    forest = ForestConfig(
        n_trees=3, bootstrap=False, tau=0.5, seed=8,
        tree=GrowConfig(max_depth=2, min_samples_leaf=4,
                        criterion=SplitCriterion(kind="sse", value_mode="observed", als=als),
                        strategy=SearchStrategy(kind="exhaustive", seed=8),
                        leaf=LeafModelSpec(kind="mean", als=als, intercept=False)),
    )

    output_keys = {
        "seed": 2, "n_estimators": 2, "learning_rate": 0.5, "p_resample": 0.25,
        "max_depth": 1, "min_samples_leaf": 3, "leaf_model": "mean", "alpha": 0.1,
        "prune_quality": "variance", "als": als_doc,
    }

    def output(approach, decomp, rank):
        grow_cfg = GrowConfig(max_depth=1, min_samples_leaf=3,
                              criterion=SplitCriterion(als=als),
                              strategy=SearchStrategy(seed=2), leaf=LeafModelSpec(als=als))
        boosting = BoostingConfig(n_estimators=2, learning_rate=0.5, p_resample=0.25, seed=2,
                                  tree=grow_cfg, prune=PruneConfig(alpha=0.1, als=als))
        return OutputConfig(approach=approach, decomp=decomp, rank=rank, boosting=boosting,
                            als=als)

    return {
        "tree": (tree_keys, {"grow": tree_grow, "prune": tree_prune}),
        "boosting": (boost_keys, {"fit_boosting": boost}),
        "forest": (forest_keys, {"fit_forest": forest}),
        "entrywise": ({**output_keys, "output_decomp": "tucker", "output_rank": 2},
                      {"fit_entrywise": output("entrywise", "tucker", 2)}),
        "lowrank": ({**output_keys, "output_decomp": "tucker", "output_rank": [3, 2, 2]},
                    {"fit_lowrank": output("lowrank", "tucker", (3, 2, 2))}),
    }


def _library_fit(x, y, configs):
    if "grow" in configs:
        tree = grow(x, y, configs["grow"])
        return prune(tree, configs["prune"]) if "prune" in configs else tree
    (name, config), = configs.items()
    return getattr(cli, name)(x, y, config)


LIBRARY_DEFAULTS = {
    "tree": {"grow": GrowConfig()},
    "boosting": {"fit_boosting": BoostingConfig()},
    "forest": {"fit_forest": ForestConfig()},
    "entrywise": {"fit_entrywise": OutputConfig()},
}


@pytest.mark.parametrize("model", ["tree", "boosting", "forest", "entrywise", "lowrank"])
@pytest.mark.parametrize("keys", ["every", "none"])
def test_fit_config_builds_library_configs(tmp_path, monkeypatch, capsys, model, keys):
    rng = make_rng(30)
    x = rng.uniform(size=(60, 3, 3))
    if model in ("entrywise", "lowrank"):
        y = np.stack([x[:, 0, 0] > 0.5, x[:, 1, 1], x[:, 2, 0] * x[:, 0, 2], x[:, 1, 2] > 0.3],
                     axis=1).reshape(60, 2, 2).astype(float)
    else:
        y = 3.0 * (x[:, 0, 1] > 0.5) + x[:, 2, 2] + rng.normal(0.0, 0.1, 60)
    np.save(tmp_path / "X.npy", x)
    np.save(tmp_path / "y.npy", y)
    run = {"model": model, "data": {"x": str(tmp_path / "X.npy"), "y": str(tmp_path / "y.npy")}}
    if keys == "every":
        doc, expected = _library_configs()[model]
        run.update(doc)
    elif model == "lowrank":
        # the library has no default output rank, so a bare low-rank config is refused
        with pytest.raises(ValueError, match="rank"):
            OutputConfig(approach="lowrank")
        cfg = write_config(tmp_path / "cfg.json", run)
        assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 2
        return
    else:
        expected = LIBRARY_DEFAULTS[model]

    seen = {}

    def spy(name, fitter):
        def call(*args, **kwargs):
            seen[name] = args[-1]  # every fitter takes its config last
            return fitter(*args, **kwargs)
        return call

    for name in expected:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    cfg = write_config(tmp_path / "cfg.json", run)
    out = tmp_path / "m.json"
    assert cli.main(["fit", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    capsys.readouterr()
    assert seen == expected
    monkeypatch.undo()
    assert out.read_text() == serialize.dumps(_library_fit(x, y, expected))


@pytest.mark.parametrize("command", ["fit", "bench", "predict"])
def test_unscorable_response_exit_3(workdir, command):
    # fit and predict --y score an all-zero response (RPE undefined); bench with
    # n=3 at test_fraction 0.25 leaves no test row to score
    np.save(workdir / "X.npy", np.zeros((20, 2, 2)))
    np.save(workdir / "y.npy", np.zeros(20))
    if command == "bench":
        cfg = write_config(workdir / "cfg.json", {**BENCH_BASE,
                                                  "synthetic": {"generator": "prune_fn", "n": 3}})
        res = run_cli("bench", "--config", cfg, "--out", "out", cwd=workdir)
    elif command == "fit":
        cfg = write_config(workdir / "cfg.json", FIT_BASE)
        res = run_cli("fit", "--config", cfg, "--out", "out", cwd=workdir)
    else:
        np.save(workdir / "ones.npy", np.ones(20))
        cfg = write_config(workdir / "cfg.json", {**FIT_BASE, "data": {"x": "X.npy",
                                                                       "y": "ones.npy"}})
        assert run_cli("fit", "--config", cfg, "--out", "m.json", cwd=workdir).returncode == 0
        res = run_cli("predict", "--model", "m.json", "--x", "X.npy", "--y", "y.npy",
                      "--out", "out.npy", cwd=workdir)
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    # fit scores before it writes the model; predict writes its predictions first
    assert not (workdir / "out").exists()
    assert (workdir / "out.npy").exists() == (command == "predict")


@pytest.mark.parametrize("sweep, rows, builds", [
    ({"max_depth": [1, 2], "seed": [0, 1, 2]}, 6, 1),
    ({"max_depth": [1, 2], "n": [40, 50]}, 4, 2),
])
def test_bench_builds_each_dataset_once(tmp_path, monkeypatch, capsys, sweep, rows, builds):
    calls = []
    real = cli.generate

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(cli, "generate", counted)
    cfg = write_config(tmp_path / "bench.json", {
        "synthetic": {"generator": "prune_fn", "n": 40, "seed": 2},
        "base": {"criterion": "sse", "leaf_model": "mean"},
        "sweep": sweep,
    })
    assert cli.main(["bench", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
    capsys.readouterr()
    assert len(calls) == builds
    assert len((tmp_path / "s.csv").read_text().strip().splitlines()) == 1 + rows


def test_unknown_generator_names_the_generators(workdir):
    res = run_cli("synth", "--generator", "nope", "--n", "10", "--out", "d", cwd=workdir)
    assert res.returncode == 2
    assert all(name in res.stderr for name in GENERATORS)


@pytest.mark.parametrize("case, code", [
    ("fit-out-in-missing-dir", 3),
    ("predict-out-in-missing-dir", 3),
    ("bench-out-in-missing-dir", 3),
    ("synth-out-is-a-file", 3),
    ("fit-config-not-utf8", 2),
    ("bench-row-count-mismatch", 3),
    ("bench-config-not-utf8", 2),
    ("fit-empty-npy", 3),
])
def test_every_error_maps_to_an_exit_code(workdir, case, code):
    x, y = np.zeros((20, 2, 2)), np.arange(20.0)
    np.save(workdir / "X.npy", x)
    np.save(workdir / "y.npy", y)
    np.save(workdir / "y5.npy", y[:5])
    (workdir / "empty.npy").write_bytes(b"")
    (workdir / "file").write_text("")
    (workdir / "latin1.json").write_bytes('{"model": "tree", "x": "\xe9"}'.encode("latin-1"))
    serialize.save_model(grow(x, y, GrowConfig(max_depth=1)), workdir / "m.json")
    fit = write_config(workdir / "fit.json", FIT_BASE)
    bench = write_config(workdir / "bench.json", BENCH_BASE)
    missing = str(workdir / "absent" / "out")
    args = {
        "fit-out-in-missing-dir": ("fit", "--config", fit, "--out", missing),
        "predict-out-in-missing-dir": ("predict", "--model", "m.json", "--x", "X.npy",
                                       "--out", missing),
        "bench-out-in-missing-dir": ("bench", "--config", bench, "--out", missing),
        "synth-out-is-a-file": ("synth", "--generator", "prune_fn", "--n", "5", "--out", "file"),
        "fit-config-not-utf8": ("fit", "--config", "latin1.json", "--out", "out"),
        "bench-row-count-mismatch": (
            "bench", "--config",
            write_config(workdir / "mismatch.json", {"data": {"x": "X.npy", "y": "y5.npy"},
                                                     "sweep": {"max_depth": [1]}}),
            "--out", "out"),
        "bench-config-not-utf8": ("bench", "--config", "latin1.json", "--out", "out"),
        "fit-empty-npy": ("fit", "--config",
                          write_config(workdir / "empty.json",
                                       {**FIT_BASE, "data": {"x": "empty.npy", "y": "y.npy"}}),
                          "--out", "out"),
    }[case]
    res = run_cli(*args, cwd=workdir)
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_low_rank_leaf_non_finite_unrouted_value_exit_3(workdir):
    run_cli("synth", "--generator", "prune_fn", "--n", "60", "--seed", "9",
            "--out", "data", cwd=workdir)
    cfg = write_config(workdir / "cfg.json", {
        "model": "tree", "data": {"x": "data/X.npy", "y": "data/y.npy"},
        "max_depth": 1, "min_samples_leaf": 10, "leaf_model": "cp", "CP_reg_rank": 1,
    })
    assert run_cli("fit", "--config", cfg, "--out", "m.json", cwd=workdir).returncode == 0
    root = tuple(json.loads((workdir / "m.json").read_text())["node"]["rule"]["coords"])
    other = next(c for c in np.ndindex(4, 4, 4) if c != root)
    x = np.load(workdir / "data" / "X.npy")[:5]
    x[(2,) + other] = np.nan
    np.save(workdir / "nan.npy", x)
    res = run_cli("predict", "--model", "m.json", "--x", "nan.npy", "--out", "p.npy",
                  cwd=workdir)
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    assert not (workdir / "p.npy").exists()


@pytest.mark.parametrize("edit", ["leaf_kind", "leaf_coefficient", "approach", "decomp"])
def test_unknown_model_kind_exit_3(workdir, edit):
    rng = make_rng(11)
    x = rng.uniform(size=(40, 2, 2))
    tree = GrowConfig(max_depth=1, min_samples_leaf=10, leaf=LeafModelSpec(kind="cp", rank=1))
    if edit.startswith("leaf"):
        doc = serialize.model_to_dict(grow(x, x[:, 0, 0] + x[:, 1, 1], tree))
        assert "rule" in doc["node"]
        doc["node"]["left"]["leaf"]["model"]["kind"] = "banana" if edit == "leaf_kind" else "tucker"
    else:
        boost = BoostingConfig(n_estimators=1, tree=GrowConfig(max_depth=1))
        cfg = OutputConfig(approach="lowrank", decomp="tucker", rank=2, boosting=boost)
        doc = serialize.model_to_dict(fit_lowrank(x, rng.normal(size=(40, 3)), cfg))
        doc[edit] = "banana"
    (workdir / "m.json").write_text(json.dumps(doc))
    np.save(workdir / "X.npy", x[:5])
    res = run_cli("predict", "--model", "m.json", "--x", "X.npy", "--out", "p.npy", cwd=workdir)
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert not (workdir / "p.npy").exists()


@pytest.mark.parametrize("repro", ["cp_leaf_factor_scalar", "lowrank_mean_leaf_overflow"])
def test_broken_leaf_arrays_and_overflow_exit_3(workdir, repro):
    rng = make_rng(12)
    x = rng.uniform(size=(40, 2, 2))
    if repro == "cp_leaf_factor_scalar":
        tree = GrowConfig(max_depth=1, min_samples_leaf=10, leaf=LeafModelSpec(kind="cp", rank=1))
        doc = serialize.model_to_dict(grow(x, x[:, 0, 0] + x[:, 1, 1], tree))
        doc["node"]["left"]["leaf"]["model"]["coefficient"]["factors"][0] = 3
    else:
        boost = BoostingConfig(n_estimators=1, tree=GrowConfig(max_depth=1))
        cfg = OutputConfig(approach="lowrank", decomp="cp", rank=2, boosting=boost)
        doc = serialize.model_to_dict(fit_lowrank(x, rng.normal(size=(40, 3)), cfg))
        doc["ensembles"][0]["eta"] = 1.0
        node = doc["ensembles"][0]["trees"][0]["node"]
        while "leaf" not in node:
            node = node["left"]
        node["leaf"]["model"]["mean"] = 1e308
    (workdir / "m.json").write_text(json.dumps(doc))
    np.save(workdir / "X.npy", x[:5])
    res = run_cli("predict", "--model", "m.json", "--x", "X.npy", "--out", "p.npy", cwd=workdir)
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert not (workdir / "p.npy").exists()


def test_fit_on_responses_whose_squares_overflow_exit_3(workdir):
    x = make_rng(13).uniform(size=(40, 3, 2))
    np.save(workdir / "X.npy", x)
    np.save(workdir / "y.npy", np.where(x[:, 0, 0] > 0.5, 1e160, 0.0))
    cfg = write_config(workdir / "cfg.json", FIT_BASE)
    res = run_cli("fit", "--config", cfg, "--out", "m.json", cwd=workdir)
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: responses too large") and res.stderr.count("\n") == 1
    assert not (workdir / "m.json").exists()
