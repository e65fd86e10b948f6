#!/usr/bin/env python3
"""Quickstart: distributed BPMF training over real sockets.

Trains the same fixed-seed chain three ways — the sequential sampler,
the distributed sampler with its 2 ranks on threads of this process
(the default), and the distributed sampler as 2 separate OS processes
launched with ``python -m repro.mpi.net`` — and checks that all three
are bit-identical: same factors, same RMSE trajectory, same
predictions, random ties included.

Both distributed runs execute the same per-rank program over real TCP
links (binary frames, flush barriers); the in-process form only elides
the process boundary.  To spawn and verify a larger multi-process world:

    python -m repro.mpi.net --spawn --world 4 --program train

Run with:  PYTHONPATH=src python examples/distributed_quickstart.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import BPMFConfig, GibbsSampler, SamplerOptions
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset
from repro.distributed.sampler import (
    DistributedGibbsSampler,
    DistributedOptions,
)
from repro.mpi.net import free_port

DATA = SyntheticConfig(n_users=120, n_movies=90, rank=4, density=0.15,
                       noise_std=0.3, test_fraction=0.2, seed=42)
CONFIG = BPMFConfig(num_latent=6, alpha=8.0, burn_in=3, n_samples=6)
SEED = 11
N_RANKS = 2
BUFFER_CAPACITY = 16


def run_multiprocess(out: Path) -> dict:
    """One OS process per rank; rank 0 saves the chain to ``out``."""
    port = free_port()
    args = ["--world", str(N_RANKS), "--rendezvous", f"127.0.0.1:{port}",
            "--program", "train", "--hyper-mode", "gather",
            "--buffer-capacity", str(BUFFER_CAPACITY),
            "--users", str(DATA.n_users), "--movies", str(DATA.n_movies),
            "--data-rank", str(DATA.rank), "--density", str(DATA.density),
            "--noise-std", str(DATA.noise_std),
            "--test-fraction", str(DATA.test_fraction),
            "--data-seed", str(DATA.seed),
            "--num-latent", str(CONFIG.num_latent),
            "--burn-in", str(CONFIG.burn_in),
            "--n-samples", str(CONFIG.n_samples),
            "--alpha", str(CONFIG.alpha), "--seed", str(SEED)]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    processes = [subprocess.Popen(
        [sys.executable, "-m", "repro.mpi.net", "--rank", str(rank), *args]
        + (["--out", str(out)] if rank == 0 else []), env=env)
        for rank in range(N_RANKS)]
    codes = [process.wait(timeout=300) for process in processes]
    if codes != [0] * N_RANKS:
        raise SystemExit(f"rank processes failed with exit codes {codes}")
    with np.load(out) as saved:
        return {key: saved[key] for key in saved.files}


def main() -> None:
    # 1. A small ground-truth dataset, and one configuration shared by
    #    every run below.
    data = make_low_rank_dataset(DATA)
    train, split = data.split.train, data.split
    print(f"dataset: {train.n_users} users x {train.n_movies} movies, "
          f"{train.nnz} training ratings")

    # 2. The sequential reference chain.
    sequential = GibbsSampler(CONFIG, SamplerOptions()).run(
        train, split, seed=SEED)
    print(f"sequential        final RMSE {sequential.final_rmse:.6f}")

    # 3. The same chain, distributed: 2 ranks on threads of this process,
    #    each exchanging its factor blocks over a localhost TCP link.  In
    #    "gather" hyper-parameter mode the distributed chain consumes the
    #    random stream exactly like the sequential sampler, so the two
    #    match bit for bit.
    options = DistributedOptions(n_ranks=N_RANKS, hyper_mode="gather",
                                 buffer_capacity=BUFFER_CAPACITY)
    in_process, info = DistributedGibbsSampler(CONFIG, options).run(
        train, split, seed=SEED)
    print(f"in-process ranks  final RMSE {in_process.final_rmse:.6f} "
          f"({info.n_messages} messages, {info.bytes_sent / 1e3:.1f} kB)")

    # 4. The same chain again as 2 OS processes, one rank each: the form a
    #    real deployment runs.  Rank 0 evaluates and saves the chain.
    with tempfile.TemporaryDirectory() as workdir:
        chain = run_multiprocess(Path(workdir) / "chain.npz")
    print(f"multi-process     final RMSE {chain['rmse_running_mean'][-1]:.6f}")

    # 5. Bit-parity, not approximate agreement.
    assert np.array_equal(in_process.state.user_factors,
                          sequential.state.user_factors)
    assert np.array_equal(in_process.state.movie_factors,
                          sequential.state.movie_factors)
    assert in_process.rmse_running_mean == sequential.rmse_running_mean
    assert np.array_equal(in_process.predictions, sequential.predictions)
    print("in-process    chain is bit-identical to the sequential chain")
    assert np.array_equal(chain["user_factors"],
                          sequential.state.user_factors)
    assert np.array_equal(chain["movie_factors"],
                          sequential.state.movie_factors)
    assert np.array_equal(chain["rmse_running_mean"],
                          np.asarray(sequential.rmse_running_mean))
    assert np.array_equal(chain["predictions"], sequential.predictions)
    print("multi-process chain is bit-identical to the sequential chain")


if __name__ == "__main__":
    main()
