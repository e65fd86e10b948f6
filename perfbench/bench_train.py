"""The training workloads: ``train-1p`` and ``train-2rank``.

Both train BPMF on the same generated ChEMBL-like matrix with the same
configuration and seed.  ``train-1p`` runs the default ``GibbsSampler``
(batched engine) in one process; ``train-2rank`` runs
``DistributedGibbsSampler`` with default ``DistributedOptions(n_ranks=2)``
as two OS processes joined by ``SocketCommWorld.connect``.  Each process
is ``train_rank.py``; this module launches them, times their set-up,
collects their chains and checks the outputs.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import (
    SETUP_REPEATS,
    BenchError,
    Outcome,
    WorkDir,
    python_child,
)
from layers import TRAINING_LAYERS


@dataclass(frozen=True)
class TrainSize:
    dataset: str
    num_latent: int
    burn_in: int
    n_samples: int

    @property
    def sweeps(self) -> int:
        return self.burn_in + self.n_samples


#: ``full`` is the benchmark; ``tiny`` is for the self-tests only.  The
#: rating matrix is the registry's fixed ChEMBL-like dataset (9,670 x 115,
#: ~16k training ratings): its power-law degrees vary so much between
#: generator seeds (largest target degree 1.5k-8.9k) that a per-seed
#: matrix would change the work and memory of a run.  ``--seed`` seeds
#: the chain.
SIZES = {"full": TrainSize(dataset="chembl-like", num_latent=32, burn_in=4,
                           n_samples=6),
         "tiny": TrainSize(dataset="chembl-like-tiny", num_latent=4,
                           burn_in=1, n_samples=1)}

#: Relative tolerance between the 2-rank chain's final RMSE and the
#: single-process one: stats mode differs only by the rounding of the
#: allreduced sufficient statistics.
RMSE_RTOL = 1e-9

#: Layers whose wrapper must catch time in every traced chain: a zero
#: means a wrapped function was renamed, overridden or moved, and its
#: time went to the residual unseen.
ENGINE_LAYERS = ("core.engine.movies", "core.engine.users")
MPI_LAYERS = ("mpi.send", "mpi.wait", "mpi.coll")


def make_data(path: Path, size: TrainSize) -> None:
    """Generate the workload's rating data and save it for the ranks."""
    from repro.datasets.registry import load_dataset

    _, split = load_dataset(size.dataset)
    train_users, train_movies, train_values = split.train.triplets()
    np.savez(path, shape=np.array([split.train.n_users,
                                   split.train.n_movies]),
             train_users=train_users, train_movies=train_movies,
             train_values=train_values, test_users=split.test_users,
             test_movies=split.test_movies, test_values=split.test_values)


def _launch(data: Path, seed: int, seconds: float, size: TrainSize,
            n_ranks: int, setup_only: bool, trace: bool):
    """Start every rank; returns the children (rank order)."""
    from repro.mpi.net.world import free_port

    common = ["--data", str(data), "--num-latent", str(size.num_latent),
              "--burn-in", str(size.burn_in),
              "--n-samples", str(size.n_samples), "--seed", str(seed),
              "--seconds", str(seconds)]
    if setup_only:
        common.append("--setup-only")
    if trace:
        common.append("--trace")
    if n_ranks == 1:
        return [python_child(data.with_name("rank0.log"), "train_rank.py",
                             *common)]
    rendezvous = f"127.0.0.1:{free_port()}"
    return [python_child(data.with_name(f"rank{rank}.log"), "train_rank.py",
                         *common, "--rank", str(rank), "--world",
                         str(n_ranks), "--rendezvous", rendezvous)
            for rank in range(n_ranks)]


def _await_ready(children) -> tuple:
    """Seconds from the first launch until every rank is ready, plus
    each rank's set-up breakdown."""
    readies = [child.read_json("READY ") for child in children]
    return time.perf_counter() - children[0].launched, readies


def _close_all(children) -> None:
    for child in children:
        child.close()


def reference_rmse(data: Path, seed: int, size: TrainSize) -> float:
    """The single-process chain's final RMSE for the same inputs."""
    from repro.core.gibbs import GibbsSampler, SamplerOptions
    from repro.core.priors import BPMFConfig
    from train_rank import _load

    train, split = _load(str(data))
    config = BPMFConfig(num_latent=size.num_latent, burn_in=size.burn_in,
                        n_samples=size.n_samples)
    return float(GibbsSampler(config, SamplerOptions()).run(
        train, split, seed=seed).final_rmse)


def check_chains(chains: List[Dict[str, object]],
                 reference: Optional[float]) -> Dict[str, List[bool]]:
    """Per-check, per-chain verdicts: finite factors, the same digest as
    the run's first chain (every chain has the same seed), and — when
    given — a final RMSE within :data:`RMSE_RTOL` of the single-process
    reference."""
    checks = {
        "chain.finite": [bool(chain.get("finite")) for chain in chains],
        "chain.same_digest": [chain.get("digest") == chains[0].get("digest")
                              for chain in chains]}
    if reference is not None:
        checks["chain.rmse_matches_train-1p"] = [
            abs(chain["final_rmse"] - reference) <= RMSE_RTOL * abs(reference)
            for chain in chains]
    return checks


def layers_caught(rank_layers: List[Dict[str, float]]) -> bool:
    """Every rank's engine wrappers caught time, and in a distributed run
    so did its MPI wrappers."""
    required = ENGINE_LAYERS + (MPI_LAYERS if len(rank_layers) > 1 else ())
    return all(layers.get(name, 0.0) > 0 for layers in rank_layers
               for name in required)


def _layer_table(results: List[Dict[str, object]], sweeps: int,
                 outcome: Outcome) -> None:
    """Per-layer metrics from the traced chains of every rank."""
    per_rank = []
    for result in results:
        traced = [chain for chain in result["chains"] if chain["traced"]]
        n_sweeps = sweeps * len(traced)
        wall_ms = sum(chain["wall_s"] for chain in traced) * 1e3 / n_sweeps
        layers = {name: sum(chain["layers_s"].get(name, 0.0)
                            for chain in traced) * 1e3 / n_sweeps
                  for name in TRAINING_LAYERS}
        other = wall_ms - sum(layers.values())
        comm = layers["mpi.send"] + layers["mpi.wait"] + layers["mpi.coll"]
        engine = layers["core.engine.movies"] + layers["core.engine.users"]
        per_rank.append({"wall_ms": wall_ms, "layers": layers,
                         "other": other, "compute": wall_ms - comm,
                         "engine": engine,
                         "flops": result["flops_per_sweep"],
                         "buckets": result["buckets"],
                         "bytes": sum(chain["mpi_bytes"] for chain in traced)
                         / n_sweeps,
                         "msgs": sum(chain["mpi_msgs"] for chain in traced)
                         / n_sweeps,
                         "fill": statistics.mean(
                             chain.get("items_per_message", 0.0)
                             for chain in traced)
                         / (result["buffer_capacity"] or 1)})

    def mean(key, layer=None):
        return statistics.mean(rank["layers"][layer] if layer else rank[key]
                               for rank in per_rank)

    table = outcome.per_layer
    table["core.engine.movies_ms"] = mean(None, "core.engine.movies")
    table["core.engine.users_ms"] = mean(None, "core.engine.users")
    engine_s = sum(rank["engine"] for rank in per_rank) * 1e-3
    # An engine wrapper that caught nothing fails trace.layers_caught.
    table["core.engine.gflops"] = (sum(rank["flops"] for rank in per_rank)
                                   / engine_s / 1e9 if engine_s else 0.0)
    table["sparse.buckets.n"] = mean("buckets")
    table["core.wishart.ms"] = mean(None, "core.wishart")
    table["core.eval.ms"] = mean(None, "core.eval")
    table["sweep.other_ms"] = mean("other")
    table["sweep.wall_ms"] = mean("wall_ms")
    table["mpi.send_ms"] = mean(None, "mpi.send")
    table["mpi.wait_ms"] = mean(None, "mpi.wait")
    table["mpi.coll_ms"] = mean(None, "mpi.coll")
    table["mpi.mb"] = sum(rank["bytes"] for rank in per_rank) / 1e6
    table["mpi.msgs"] = sum(rank["msgs"] for rank in per_rank)
    table["mpi.buffer_fill"] = mean("fill")
    table["rank.busy_share"] = statistics.mean(
        rank["engine"] / rank["wall_ms"] for rank in per_rank)
    compute = [rank["compute"] for rank in per_rank]
    table["rank.imbalance"] = max(compute) / statistics.mean(compute)
    outcome.sum_check = {
        f"rank{index}": {"wall_ms": rank["wall_ms"],
                         "timed_ms": rank["wall_ms"] - rank["other"],
                         "other_ms": rank["other"]}
        for index, rank in enumerate(per_rank)}
    # The residual must not be negative: that would mean a layer was
    # counted twice.  Timer resolution allows a microsecond.
    outcome.check("trace.sum", all(rank["other"] >= -1e-3
                                   for rank in per_rank))
    outcome.check("trace.layers_caught",
                  layers_caught([rank["layers"] for rank in per_rank]))
    untraced = [chain["wall_s"] for chain in results[0]["chains"]
                if not chain["traced"]]
    traced = [chain["wall_s"] for chain in results[0]["chains"]
              if chain["traced"]]
    table["obs.trace_overhead"] = statistics.mean(traced) \
        / statistics.mean(untraced)


def run(workload: str, seed: int, seconds: float, trace: bool,
        size_name: str = "full") -> Outcome:
    """One run of a training workload."""
    size = SIZES[size_name]
    n_ranks = 2 if workload == "train-2rank" else 1
    outcome = Outcome(workload)
    with WorkDir(workload) as work:
        data = work / "ratings.npz"
        make_data(data, size)
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            children = _launch(data, seed, seconds, size, n_ranks,
                               setup_only=True, trace=False)
            try:
                setups.append(_await_ready(children)[0])
                for child in children:
                    outcome.check("exit", child.reap() == 0)
            finally:
                _close_all(children)
        children = _launch(data, seed, seconds, size, n_ranks,
                           setup_only=False, trace=trace)
        try:
            setup_s, readies = _await_ready(children)
            setups.append(setup_s)
            results = [child.read_json("RESULT ") for child in children]
            for child in children:
                outcome.check("exit", child.reap() == 0)
            rss_kb = sum(child.maxrss_kb for child in children)
        finally:
            _close_all(children)
        reference = reference_rmse(data, seed, size) if n_ranks > 1 \
            else None

    chains = results[0]["chains"]
    if not chains:
        raise BenchError("the training process ran no chain")
    checks = check_chains(chains, reference)
    for name, verdicts in checks.items():
        outcome.check(name, all(verdicts))
    if reference is not None:
        outcome.notes["reference_final_rmse"] = reference
        outcome.notes["buffer_capacity"] = results[0]["buffer_capacity"]
    outcome.attempted = len(chains)
    outcome.failed = sum(1 for verdicts in zip(*checks.values())
                         if not all(verdicts))

    plain = [chain for chain in chains if not chain["traced"]]
    items_per_chain = results[0]["items_per_sweep"] * size.sweeps
    outcome.notes["chains"] = len(chains)
    outcome.notes["sweeps_per_chain"] = size.sweeps
    outcome.end_to_end["setup_s"] = setups
    outcome.end_to_end["peak_rss_mb"] = [rss_kb / 1024.0]
    outcome.end_to_end["throughput_per_s"] = [
        items_per_chain / chain["wall_s"] for chain in plain]
    outcome.end_to_end["op_p50_ms"] = [
        chain["wall_s"] * 1e3 / size.sweeps for chain in plain]
    outcome.end_to_end["final_rmse"] = [chains[0]["final_rmse"]]
    outcome.per_layer["final_rmse"] = chains[0]["final_rmse"]
    for key in ("setup.connect_ms", "setup.partition_ms", "setup.plan_ms"):
        outcome.per_layer[key] = statistics.mean(
            ready.get(key, 0.0) for ready in readies)
    if trace:
        _layer_table(results, size.sweeps, outcome)
    return outcome
