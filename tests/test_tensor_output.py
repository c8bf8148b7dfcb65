"""Entrywise and low-rank tensor-output schemes."""

import multiprocessing
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from tensortree import tensor_output
from tensortree._rng import derive_seed, make_rng
from tensortree.ensemble import BoostingConfig, fit_boosting
from tensortree.leaf_models import LeafModelSpec
from tensortree.serialize import dumps
from tensortree.splitting import SplitCriterion
from tensortree.tensor_ops import outer
from tensortree.tensor_output import (
    OutputConfig,
    TensorOutputModel,
    fit_entrywise,
    fit_lowrank,
    predict_tensor,
    reconstruct_from_observation_factor,
)
from tensortree.tree import GrowConfig


def small_boosting(seed=0, m=3, depth=1):
    return BoostingConfig(
        n_estimators=m,
        learning_rate=0.5,
        tree=GrowConfig(
            max_depth=depth,
            min_samples_leaf=5,
            criterion=SplitCriterion(kind="sse"),
            leaf=LeafModelSpec(kind="mean"),
        ),
        seed=seed,
    )


def linear_output_data(n, seed, noise=0.01):
    rng = make_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 3, 4))
    y = np.empty((n, 6))
    for i in range(6):
        if i % 3 == 0:
            y[:, i] = x[:, 0, 1] + x[:, 1, 1]
        elif i % 3 == 1:
            y[:, i] = x[:, 1, 1] + x[:, 2, 0]
        else:
            y[:, i] = x[:, 2, 2] + x[:, 0, 3]
    return x, y + rng.uniform(-noise, noise, size=y.shape)


class TestEntrywise:
    def test_identical_columns_identical_predictions(self):
        rng = make_rng(1)
        x = rng.uniform(size=(80, 2, 2))
        col = x[:, 0, 0] * 2.0 + 1.0
        y = np.column_stack([col, col, col])
        model = fit_entrywise(x, y, OutputConfig(approach="entrywise", boosting=small_boosting()))
        pred = predict_tensor(model, x[:10])
        assert np.allclose(pred[:, 0], pred[:, 1], atol=1e-12)
        assert np.allclose(pred[:, 0], pred[:, 2], atol=1e-12)

    def test_single_column_matches_plain_boosting(self):
        rng = make_rng(2)
        x = rng.uniform(size=(60, 2, 2))
        y = (x[:, 1, 1] ** 2).reshape(-1, 1)
        cfg = OutputConfig(approach="entrywise", boosting=small_boosting(seed=5))
        model = fit_entrywise(x, y, cfg)
        from tensortree._rng import derive_seed
        from dataclasses import replace

        direct = fit_boosting(x, y[:, 0], replace(small_boosting(seed=5), seed=derive_seed(5, 0)))
        assert np.array_equal(predict_tensor(model, x)[:, 0], direct.predict(x))

    def test_matrix_output_shape(self):
        rng = make_rng(3)
        x = rng.uniform(size=(40, 2, 2))
        y = rng.normal(size=(40, 2, 3))
        model = fit_entrywise(x, y, OutputConfig(approach="entrywise", boosting=small_boosting()))
        assert predict_tensor(model, x[:7]).shape == (7, 2, 3)

    def test_column_reorder_invariance(self):
        x, y = linear_output_data(100, seed=4)
        cfg = OutputConfig(approach="entrywise", boosting=small_boosting(seed=9))
        base = predict_tensor(fit_entrywise(x, y, cfg), x[:20])
        # fitting entries one at a time with their own derived seeds
        # reproduces each column of the jointly fitted model
        for col in (0, 3, 5):
            from tensortree._rng import derive_seed
            from dataclasses import replace

            single = fit_boosting(x, y[:, col], replace(small_boosting(seed=9), seed=derive_seed(9, col)))
            assert np.array_equal(base[:, col], single.predict(x[:20]))

    def test_literal_reorder_then_unreorder(self):
        # with a deterministic tree config the per-entry problems are
        # fully independent, so fitting a column permutation of the
        # output and un-permuting the predictions reproduces the
        # original fit exactly
        x, y = linear_output_data(90, seed=14)
        cfg = OutputConfig(approach="entrywise", boosting=small_boosting(seed=3))
        base = predict_tensor(fit_entrywise(x, y, cfg), x[:15])
        perm = np.array([4, 2, 0, 5, 1, 3])
        permuted = predict_tensor(fit_entrywise(x, y[:, perm], cfg), x[:15])
        inverse = np.argsort(perm)
        assert np.array_equal(permuted[:, inverse], base)

    def test_thread_count_does_not_change_results(self):
        x, y = linear_output_data(80, seed=5)
        cfg = OutputConfig(approach="entrywise", boosting=small_boosting(seed=2))
        a = fit_entrywise(x, y, cfg, n_threads=1)
        b = fit_entrywise(x, y, cfg, n_threads=4)
        assert np.array_equal(predict_tensor(a, x), predict_tensor(b, x))

    def test_zero_one_and_two_threads_write_the_same_model(self):
        x, y = linear_output_data(60, seed=6)
        cfg = OutputConfig(approach="entrywise", boosting=small_boosting(seed=3))
        docs = {dumps(fit_entrywise(x, y, cfg, n_threads=t)) for t in (0, 1, 2, 3)}
        assert len(docs) == 1

    def test_observation_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_entrywise(
                np.zeros((5, 2, 2)), np.zeros((4, 3)), OutputConfig(boosting=small_boosting())
            )


class TestLowRank:
    def test_exact_rank1_output_decomposes_cleanly(self):
        from tensortree.decomposition import cp_als

        rng = make_rng(6)
        u = rng.uniform(0.5, 1.5, size=30)
        y = outer([u, np.array([1.0, 2.0, 3.0])])
        x = rng.uniform(size=(30, 2, 2))
        cfg = OutputConfig(approach="lowrank", decomp="cp", rank=1, boosting=small_boosting())
        model = fit_lowrank(x, y, cfg)
        # the recorded decomposition reproduces the exactly-rank-1 output
        decomp, _ = cp_als(y, 1, cfg.als)
        assert np.linalg.norm(decomp.to_tensor() - y) / np.linalg.norm(y) < 1e-8
        recon = reconstruct_from_observation_factor(model, decomp.factors[0])
        assert np.allclose(recon, y, atol=1e-8)

    def test_reconstruction_identity_with_true_factor(self):
        rng = make_rng(7)
        x, y = linear_output_data(60, seed=7)
        cfg = OutputConfig(approach="lowrank", decomp="cp", rank=2, boosting=small_boosting())
        model = fit_lowrank(x, y, cfg)
        from tensortree.decomposition import cp_als

        decomp, _ = cp_als(y, 2, cfg.als)
        recon = reconstruct_from_observation_factor(model, decomp.factors[0])
        assert np.allclose(recon, decomp.to_tensor(), atol=1e-12)

    def test_zero_weight_reconstructs_zero(self):
        rng = make_rng(8)
        x = rng.uniform(size=(20, 2, 2))
        y = np.zeros((20, 3))
        y[:, 0] = 1e-9  # nearly zero output, rank-1 weight ~ 0
        cfg = OutputConfig(approach="lowrank", decomp="cp", rank=1, boosting=small_boosting())
        model = fit_lowrank(x, y, cfg)
        model.weights[:] = 0.0
        pred = predict_tensor(model, x[:4])
        assert np.array_equal(pred, np.zeros((4, 3)))

    def test_tucker_output_roundtrip_shape(self):
        rng = make_rng(9)
        x = rng.uniform(size=(50, 2, 2))
        y = rng.normal(size=(50, 3, 4))
        cfg = OutputConfig(approach="lowrank", decomp="tucker", rank=2, boosting=small_boosting())
        model = fit_lowrank(x, y, cfg)
        assert predict_tensor(model, x[:6]).shape == (6, 3, 4)

    def test_end_to_end_linear_signal(self):
        x, y = linear_output_data(300, seed=10)
        x_test, y_test = linear_output_data(200, seed=11)
        cfg = OutputConfig(
            approach="lowrank",
            decomp="cp",
            rank=3,
            boosting=BoostingConfig(
                n_estimators=8,
                learning_rate=0.5,
                tree=GrowConfig(max_depth=0, leaf=LeafModelSpec(kind="cp", rank=2)),
                seed=1,
            ),
        )
        model = fit_lowrank(x, y, cfg)
        pred = predict_tensor(model, x_test)
        rpe = np.linalg.norm(pred - y_test) ** 2 / np.linalg.norm(y_test) ** 2
        assert rpe < 0.05

    def test_missing_rank_rejected(self):
        with pytest.raises(ValueError):
            OutputConfig(approach="lowrank", rank=None)


class TestMetricsContract:
    def test_zero_predictor_rpe_is_one(self):
        from tensortree.data import evaluate

        rng = make_rng(12)
        y = rng.normal(size=(10, 3))
        m = evaluate(y, np.zeros_like(y))
        assert m.rpe == pytest.approx(1.0, rel=1e-14)

    def test_output_shape_contract(self):
        rng = make_rng(13)
        x = rng.uniform(size=(30, 2, 2))
        y = rng.normal(size=(30, 2, 2))
        model = fit_entrywise(x, y, OutputConfig(boosting=small_boosting()))
        assert predict_tensor(model, x[:9]).shape == (9, 2, 2)


class TestOutputRanks:
    @pytest.mark.parametrize("decomp, rank", [("cp", (2, 2)), ("cp", 0), ("tucker", (0, 2, 2))])
    def test_bad_rank_rejected_when_config_is_built(self, decomp, rank):
        with pytest.raises(ValueError, match="output rank"):
            OutputConfig(approach="lowrank", decomp=decomp, rank=rank)

    def test_tucker_tuple_rank_above_extent_rejected_before_any_fit(self, monkeypatch):
        from tensortree import tensor_output

        def fail(*args, **kwargs):
            raise AssertionError("a fit started before the rank was rejected")

        monkeypatch.setattr(tensor_output, "tucker_als", fail)
        monkeypatch.setattr(tensor_output, "fit_boosting", fail)
        rng = make_rng(14)
        x, y = rng.uniform(size=(60, 3, 3)), rng.normal(size=(60, 3, 5))
        cfg = OutputConfig(approach="lowrank", decomp="tucker", rank=(9, 9, 9),
                           boosting=small_boosting())
        with pytest.raises(ValueError, match="extent"):
            fit_lowrank(x, y, cfg)

    def test_tucker_int_rank_clamped_to_extents(self):
        rng = make_rng(15)
        x, y = rng.uniform(size=(60, 3, 3)), rng.normal(size=(60, 3, 5))
        cfg = OutputConfig(approach="lowrank", decomp="tucker", rank=9, boosting=small_boosting())
        assert fit_lowrank(x, y, cfg).core.shape == (9, 3, 5)


class TestWorkers:
    """Forked workers fit what the in-process loop fits, and none outlives a fit."""

    @pytest.mark.parametrize("decomp, rank", [("cp", 2), ("tucker", (3, 2))])
    def test_lowrank_model_is_the_same_at_every_worker_count(self, decomp, rank):
        x, y = linear_output_data(60, seed=16)
        cfg = OutputConfig(approach="lowrank", decomp=decomp, rank=rank,
                           boosting=small_boosting(seed=4))
        docs = {dumps(fit_lowrank(x, y, cfg, n_threads=t)) for t in (0, 1, 2, 3)}
        assert len(docs) == 1
        assert multiprocessing.active_children() == []

    def test_workers_fit_what_plain_boosting_fits(self):
        x, y = linear_output_data(60, seed=17)
        boosting = small_boosting(seed=5)
        plain = [fit_boosting(x, y[:, j], replace(boosting, seed=derive_seed(5, j)))
                 for j in range(y.shape[1])]
        model = fit_entrywise(x, y, OutputConfig(boosting=boosting), n_threads=3)
        assert dumps(model) == dumps(TensorOutputModel("entrywise", y.shape[1:], plain))

    @pytest.mark.parametrize("approach", ["entrywise", "lowrank"])
    def test_jobs_sort_each_column_of_x_once(self, approach, monkeypatch):
        x, y = linear_output_data(60, seed=21)
        cfg = OutputConfig(approach=approach, rank=2 if approach == "lowrank" else None,
                           boosting=small_boosting(depth=2))
        fit = fit_entrywise if approach == "entrywise" else fit_lowrank
        expected = dumps(fit(x, y, cfg))
        sorted_columns = []
        argsort = np.argsort

        def counting_argsort(a, *args, **kwargs):
            sorted_columns.append(np.asarray(a).tobytes())
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        assert dumps(fit(x, y, cfg)) == expected
        columns = {x[(slice(None),) + c].tobytes() for c in np.ndindex(3, 4)}
        assert len(sorted_columns) == len(set(sorted_columns)) == 12
        assert set(sorted_columns) == columns

    def test_job_error_reaches_the_caller_unchanged(self, monkeypatch):
        def fail(x, y, cfg, **kwargs):
            raise ValueError(f"job with seed {cfg.seed} failed")

        monkeypatch.setattr(tensor_output, "fit_boosting", fail)
        x, y = linear_output_data(30, seed=18)
        with pytest.raises(ValueError, match="job with seed"):
            fit_entrywise(x, y, OutputConfig(boosting=small_boosting()), n_threads=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(sys.platform != "linux", reason="jobs run in process off Linux")
    def test_dead_worker_is_an_os_error(self, monkeypatch):
        # forked workers inherit the patch
        monkeypatch.setattr(tensor_output, "fit_boosting", lambda *args, **kwargs: os._exit(1))
        x, y = linear_output_data(30, seed=19)
        with pytest.raises(OSError, match="worker process ended"):
            fit_entrywise(x, y, OutputConfig(boosting=small_boosting()), n_threads=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_threads", [2.5, True, -1, "2", None])
    @pytest.mark.parametrize("approach", ["entrywise", "lowrank"])
    def test_bad_worker_count_rejected(self, approach, n_threads):
        x, y = linear_output_data(30, seed=20)
        fit = {"entrywise": fit_entrywise, "lowrank": fit_lowrank}[approach]
        cfg = OutputConfig(approach=approach, rank=1, boosting=small_boosting())
        with pytest.raises(ValueError, match="n_threads must be an int"):
            fit(x, y, cfg, n_threads=n_threads)
