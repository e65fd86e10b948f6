"""End-to-end integration tests across the public API."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import (
    BPMFConfig,
    DistributedGibbsSampler,
    DistributedOptions,
    GibbsSampler,
    SamplerOptions,
    available_datasets,
    load_dataset,
    make_chembl_like,
    run_als,
    run_sgd,
)


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__ == "1.0.0"
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_registry_datasets_all_loadable(self):
        for name in available_datasets():
            if name.endswith("tiny"):
                ratings, split = load_dataset(name)
                assert ratings.nnz > 0
                assert split.train.nnz > 0


class TestEndToEndRecommendationPipeline:
    """The full workflow a downstream user would run."""

    def test_chembl_like_pipeline_all_samplers_agree(self):
        data = make_chembl_like(scale=400, seed=3, noise_std=0.3, value_spread=2.0)
        # Standard preprocessing for BPMF's zero-mean factor priors: centre
        # the activities on the training mean and add it back at prediction.
        from repro.sparse.csr import RatingMatrix
        from repro.sparse.split import RatingSplit
        global_mean = data.split.train.mean_rating()
        users, movies, values = data.split.train.triplets()
        train = RatingMatrix.from_arrays(data.ratings.n_users, data.ratings.n_movies,
                                         users, movies, values - global_mean)
        split = RatingSplit(train=train,
                            test_users=data.split.test_users,
                            test_movies=data.split.test_movies,
                            test_values=data.split.test_values - global_mean)
        config = BPMFConfig(num_latent=4, burn_in=4, n_samples=8, alpha=3.0)

        sequential = GibbsSampler(config).run(split.train, split, seed=0)
        multicore = GibbsSampler(config, SamplerOptions(n_workers=2)).run(
            split.train, split, seed=0)
        distributed, info = DistributedGibbsSampler(
            config, DistributedOptions(n_ranks=3, hyper_mode="gather")
        ).run(split.train, split, seed=0)

        np.testing.assert_array_equal(multicore.state.user_factors,
                                      sequential.state.user_factors)
        assert multicore.final_rmse == sequential.final_rmse
        assert distributed.final_rmse == pytest.approx(sequential.final_rmse)
        assert info.n_messages > 0

        # The fitted model must beat the constant-mean predictor.
        mean_rmse = float(np.sqrt(np.mean(split.test_values ** 2)))
        assert sequential.final_rmse < mean_rmse

    def test_bpmf_and_baselines_on_same_split(self, small_dataset):
        config = BPMFConfig(num_latent=5, burn_in=5, n_samples=8, alpha=8.0)
        bpmf = GibbsSampler(config).run(small_dataset.split.train,
                                        small_dataset.split, seed=0)
        als = run_als(small_dataset.split.train, small_dataset.split,
                      num_latent=5, n_iterations=10, regularization=0.05, seed=0)
        sgd = run_sgd(small_dataset.split.train, small_dataset.split,
                      num_latent=5, n_epochs=10, seed=0)
        # All three learn something; BPMF is competitive with the tuned baselines.
        for result in (bpmf.final_rmse, als.final_rmse, sgd.final_rmse):
            assert result < 1.0
        assert bpmf.final_rmse < 1.3 * min(als.final_rmse, sgd.final_rmse)


class TestCommandLine:
    def test_bench_module_lists_experiments(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.bench", "--list"],
            capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0
        assert "fig4" in completed.stdout

    def test_bench_module_rejects_unknown_experiment(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.bench", "not-an-experiment"],
            capture_output=True, text=True, timeout=120)
        assert completed.returncode == 2
        assert "unknown" in completed.stderr
