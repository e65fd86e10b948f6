"""Golden regression: a fixed-seed 20-sweep run must keep its RMSE trajectory.

The golden values below were produced by the reference (per-item) engine at
the recorded seed.  Two layers of assertion:

* an *exact* layer (tight tolerance) that pins the sampled chain itself —
  any change to the hot path's arithmetic, random-stream consumption or
  update order shows up here immediately;
* a *statistical* layer (loose band) that survives floating-point
  reordering but still catches silently changed statistics (wrong prior,
  dropped ratings, broken noise indexing).

A future hot-path refactor that intentionally changes floating-point
details (and therefore the exact chain) should re-record the golden
trajectory with ``python -m tests.test_golden_regression`` semantics —
rerun the recipe in ``_run()`` — and justify the change in its PR; the
statistical band should survive any correct refactor unchanged.

The distributed sampler is pinned twice: in ``"gather"`` mode its chain
*is* the sequential one (bitwise), and in ``"stats"`` mode — hyperprior
posteriors from allreduced sufficient statistics — it follows its own
recorded trajectory (``GOLDEN_STATS_*``, rerun the recipe in
``_run_stats()``), in one process and across four.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset

SEED = 2024
DATASET = SyntheticConfig(n_users=80, n_movies=60, rank=4, density=0.25,
                          noise_std=0.3, test_fraction=0.2, seed=321)
CONFIG = dict(num_latent=8, burn_in=5, n_samples=15, alpha=4.0)

#: Golden trajectories recorded with engine="reference" at the seed above.
GOLDEN_BURN_IN = np.array([
    0.7118454020, 0.7001605852, 0.7499116034, 0.6800600680, 0.6834076630,
])
GOLDEN_RUNNING_MEAN = np.array([
    0.6749644589, 0.6342491495, 0.6160116379, 0.6189568682, 0.6160862523,
    0.6053203634, 0.6037503919, 0.5958084709, 0.5954318364, 0.5957950538,
    0.5978225044, 0.5909415635, 0.5891169625, 0.5848709809, 0.5771773674,
])

#: The 4-rank, ``buffer_capacity=16`` stats-mode distributed chain at the
#: seed above, recorded in full precision (it differs from the sequential
#: trajectory only in the last bits: the allreduce sums per rank first).
STATS_OPTIONS = dict(n_ranks=4, hyper_mode="stats", buffer_capacity=16)
GOLDEN_STATS_BURN_IN = np.array([
    0.7118454019537616, 0.7001605852466091, 0.7499116034078902,
    0.68006006797982, 0.6834076629854867,
])
GOLDEN_STATS_RUNNING_MEAN = np.array([
    0.67496445894172, 0.6342491495027323, 0.6160116379264898,
    0.6189568682248121, 0.6160862522778928, 0.6053203634415638,
    0.603750391942221, 0.5958084709372309, 0.5954318363661639,
    0.595795053765783, 0.5978225044326946, 0.5909415635066911,
    0.5891169624882227, 0.5848709809071245, 0.5771773673746665,
])

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Exact layer: pins the chain (same platform/BLAS reproduces ~1e-12).
EXACT_ATOL = 1e-6
#: Statistical layer: survives fp reordering, catches changed statistics.
BAND_ATOL = 0.05


@pytest.fixture(scope="module")
def dataset():
    return make_low_rank_dataset(DATASET)


def _run(dataset, engine: str):
    sampler = GibbsSampler(BPMFConfig(**CONFIG), SamplerOptions(engine=engine))
    return sampler.run(dataset.split.train, dataset.split, seed=SEED)


@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_rmse_trajectory_matches_golden(dataset, engine):
    """Both engines reproduce the recorded 20-sweep RMSE trajectory."""
    result = _run(dataset, engine)
    np.testing.assert_allclose(result.rmse_burn_in, GOLDEN_BURN_IN,
                               atol=EXACT_ATOL)
    np.testing.assert_allclose(result.rmse_running_mean, GOLDEN_RUNNING_MEAN,
                               atol=EXACT_ATOL)


@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_rmse_trajectory_statistics(dataset, engine):
    """The loose band that must survive any numerically-correct refactor."""
    result = _run(dataset, engine)
    assert len(result.rmse_burn_in) == CONFIG["burn_in"]
    assert len(result.rmse_running_mean) == CONFIG["n_samples"]
    np.testing.assert_allclose(result.rmse_running_mean, GOLDEN_RUNNING_MEAN,
                               atol=BAND_ATOL)
    # The posterior mean keeps improving overall and beats burn-in.
    assert result.final_rmse < result.rmse_running_mean[0]
    assert result.final_rmse < min(GOLDEN_BURN_IN)
    # Recovers the planted low-rank signal to within ~2x the noise floor.
    assert result.final_rmse < 2.0 * DATASET.noise_std


def _run_stats(dataset):
    from repro.distributed.sampler import (
        DistributedGibbsSampler,
        DistributedOptions,
    )

    result, _ = DistributedGibbsSampler(
        BPMFConfig(**CONFIG), DistributedOptions(**STATS_OPTIONS)).run(
        dataset.split.train, dataset.split, seed=SEED)
    return result


def test_socket_world_reproduces_the_golden_chain(dataset):
    """A 4-rank socket-world (real TCP links) run of the distributed
    sampler in gather mode lands on the very same golden chain — and
    bit-identically on the sequential chain, exact ties included."""
    from repro.distributed.sampler import (
        DistributedGibbsSampler,
        DistributedOptions,
    )

    opts = dict(n_ranks=4, hyper_mode="gather", buffer_capacity=16)
    reference = GibbsSampler(BPMFConfig(**CONFIG)).run(
        dataset.split.train, dataset.split, seed=SEED)
    result, _info = DistributedGibbsSampler(
        BPMFConfig(**CONFIG), DistributedOptions(**opts)).run(
        dataset.split.train, dataset.split, seed=SEED)
    np.testing.assert_allclose(result.rmse_burn_in, GOLDEN_BURN_IN,
                               atol=EXACT_ATOL)
    np.testing.assert_allclose(result.rmse_running_mean, GOLDEN_RUNNING_MEAN,
                               atol=EXACT_ATOL)
    # Bitwise against the sequential sampler, not just within tolerance.
    assert result.rmse_running_mean == reference.rmse_running_mean
    assert np.array_equal(result.state.user_factors,
                          reference.state.user_factors)
    assert np.array_equal(result.state.movie_factors,
                          reference.state.movie_factors)
    assert np.array_equal(result.predictions, reference.predictions)


def test_engines_agree_on_the_full_golden_run(dataset):
    """20-sweep cross-engine agreement on the same seed (chain-level)."""
    ref = _run(dataset, "reference")
    bat = _run(dataset, "batched")
    np.testing.assert_allclose(bat.rmse_running_mean, ref.rmse_running_mean,
                               atol=EXACT_ATOL)
    np.testing.assert_allclose(bat.predictions, ref.predictions, atol=1e-4)


def test_stats_mode_in_process_run_matches_stats_golden(dataset):
    """The thread-hosted 4-rank stats-mode chain keeps its trajectory."""
    result = _run_stats(dataset)
    np.testing.assert_allclose(result.rmse_burn_in, GOLDEN_STATS_BURN_IN,
                               atol=EXACT_ATOL)
    np.testing.assert_allclose(result.rmse_running_mean,
                               GOLDEN_STATS_RUNNING_MEAN, atol=EXACT_ATOL)


def test_stats_mode_multiprocess_run_matches_stats_golden(dataset, tmp_path):
    """Four OS processes (one rank each, ``python -m repro.mpi.net``)
    reproduce the stats golden — bitwise equal to the in-process run."""
    from repro.mpi.net import free_port

    port = free_port()
    chain = tmp_path / "chain.npz"
    args = ["--world", "4", "--rendezvous", f"127.0.0.1:{port}",
            "--program", "train", "--hyper-mode", "stats",
            "--buffer-capacity", str(STATS_OPTIONS["buffer_capacity"]),
            "--users", str(DATASET.n_users), "--movies", str(DATASET.n_movies),
            "--data-rank", str(DATASET.rank),
            "--density", str(DATASET.density),
            "--noise-std", str(DATASET.noise_std),
            "--test-fraction", str(DATASET.test_fraction),
            "--data-seed", str(DATASET.seed),
            "--num-latent", str(CONFIG["num_latent"]),
            "--burn-in", str(CONFIG["burn_in"]),
            "--n-samples", str(CONFIG["n_samples"]),
            "--alpha", str(CONFIG["alpha"]), "--seed", str(SEED)]
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    processes = [subprocess.Popen(
        [sys.executable, "-m", "repro.mpi.net", "--rank", str(rank), *args]
        + (["--out", str(chain)] if rank == 0 else []),
        cwd=REPO_ROOT, env=env) for rank in range(4)]
    assert [process.wait(timeout=240) for process in processes] == [0] * 4

    in_process = _run_stats(dataset)
    with np.load(chain) as saved:
        np.testing.assert_allclose(saved["rmse_burn_in"],
                                   GOLDEN_STATS_BURN_IN, atol=EXACT_ATOL)
        np.testing.assert_allclose(saved["rmse_running_mean"],
                                   GOLDEN_STATS_RUNNING_MEAN, atol=EXACT_ATOL)
        assert np.array_equal(saved["rmse_running_mean"],
                              np.asarray(in_process.rmse_running_mean))
        assert np.array_equal(saved["user_factors"],
                              in_process.state.user_factors)
        assert np.array_equal(saved["movie_factors"],
                              in_process.state.movie_factors)
