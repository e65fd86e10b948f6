"""Distributed ladder: the socket-world chain over ranks x K.

Runs one fixed-seed distributed Gibbs chain per grid point of rank
counts and latent dimensions, every rank on its own thread over a
localhost :class:`~repro.mpi.net.SocketCommWorld` (real TCP links, the
frame codec, receiver threads, flush barriers) — the sampler's default
in-process host.

In gather mode every row also re-checks parity (``parity`` column): the
chain's final RMSE trajectory must equal the sequential sampler's
bitwise, so a timing document can never silently describe a different
chain.  Stats-mode rows carry no parity check.

Read the numbers with the machine in mind: on a single-core container
(see ``environment.cpu_count``) all socket ranks time-slice one CPU, so
the ladder measures transport overhead only, not parallel speed-up;
rank scaling needs real cores or hosts (``python -m repro.mpi.net
--spawn``).

``python -m repro.bench distributed --record`` writes the recorded
document to ``BENCH_pr10.json``; the committed file predates the removal
of the simulated-world rung (``sim``) and its ``vs_sim`` column.
"""

from __future__ import annotations

import datetime
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.priors import BPMFConfig
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset
from repro.utils.environment import machine_environment
from repro.utils.tables import Table
from repro.utils.validation import check_positive

__all__ = ["DistributedBenchRow", "DistributedBenchResult",
           "run_distributed_bench"]


@dataclass
class DistributedBenchRow:
    """One timed (transport, ranks, K) rung."""

    transport: str
    ranks: int
    num_latent: int
    sweeps: int
    seconds: float
    sweeps_per_s: float
    messages: int
    mb_sent: float
    final_rmse: float
    parity: Optional[bool]

    def to_json(self) -> Dict[str, object]:
        return {
            "transport": self.transport,
            "ranks": self.ranks,
            "num_latent": self.num_latent,
            "sweeps": self.sweeps,
            "seconds": self.seconds,
            "sweeps_per_s": self.sweeps_per_s,
            "messages": self.messages,
            "mb_sent": self.mb_sent,
            "final_rmse": self.final_rmse,
            "parity": self.parity,
        }


@dataclass
class DistributedBenchResult:
    """All rungs plus workload and machine metadata."""

    rows: List[DistributedBenchRow]
    workload: Dict[str, object]
    environment: Dict[str, object]

    def to_table(self) -> Table:
        table = Table(
            ["transport", "ranks", "K", "sweeps", "seconds", "sweeps/s",
             "msgs", "MB sent", "final rmse", "parity"],
            title="Distributed ladder — socket comm world, ranks x K",
        )
        for row in self.rows:
            table.add_row(
                row.transport, row.ranks, row.num_latent, row.sweeps,
                round(row.seconds, 3), round(row.sweeps_per_s, 2),
                row.messages, round(row.mb_sent, 3),
                round(row.final_rmse, 6),
                "-" if row.parity is None else ("ok" if row.parity
                                                else "MISMATCH"),
            )
        return table

    def to_json_payload(self) -> Dict[str, object]:
        """The ``BENCH_pr10.json`` document for this run."""
        return {
            "benchmark": "distributed-ladder",
            "created": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "environment": dict(self.environment),
            "workload": dict(self.workload),
            "results": [row.to_json() for row in self.rows],
        }


def run_distributed_bench(
    n_users: int = 400,
    n_movies: int = 300,
    density: float = 0.05,
    num_latents: Sequence[int] = (8, 16),
    rank_counts: Sequence[int] = (2, 4),
    burn_in: int = 2,
    n_samples: int = 4,
    alpha: float = 4.0,
    hyper_mode: str = "gather",
    buffer_capacity: int = 64,
    seed: int = 7,
    data_seed: int = 321,
) -> DistributedBenchResult:
    """Time the distributed chain on a ranks x K grid.

    Each grid point runs the fixed-seed chain once with its ranks on
    threads over localhost TCP sockets (transport ``socket``); in gather
    mode ``parity`` re-asserts the bit-identical RMSE trajectory of the
    sequential sampler that the test suite pins.
    """
    from repro.core.gibbs import GibbsSampler
    from repro.distributed.sampler import (
        DistributedGibbsSampler,
        DistributedOptions,
    )

    check_positive("n_samples", n_samples)
    data = make_low_rank_dataset(SyntheticConfig(
        n_users=n_users, n_movies=n_movies, rank=4, density=density,
        noise_std=0.3, test_fraction=0.2, seed=data_seed))
    sweeps = burn_in + n_samples

    rows: List[DistributedBenchRow] = []
    for num_latent in num_latents:
        config = BPMFConfig(num_latent=num_latent, burn_in=burn_in,
                            n_samples=n_samples, alpha=alpha)
        reference = (GibbsSampler(config).run(data.split.train, data.split,
                                              seed=seed)
                     if hyper_mode == "gather" else None)
        for n_ranks in rank_counts:
            options = DistributedOptions(n_ranks=n_ranks,
                                         hyper_mode=hyper_mode,
                                         buffer_capacity=buffer_capacity)
            begin = time.perf_counter()
            result, info = DistributedGibbsSampler(config, options).run(
                data.split.train, data.split, seed=seed)
            seconds = time.perf_counter() - begin
            rows.append(DistributedBenchRow(
                transport="socket", ranks=n_ranks, num_latent=num_latent,
                sweeps=sweeps, seconds=seconds,
                sweeps_per_s=sweeps / seconds,
                # Wire frames summed over the ranks.
                messages=info.n_messages,
                mb_sent=info.bytes_sent / 1e6,
                final_rmse=float(result.final_rmse),
                parity=(None if reference is None
                        else result.rmse_running_mean
                        == reference.rmse_running_mean),
            ))

    return DistributedBenchResult(
        rows=rows,
        workload={
            "dataset": "synthetic-low-rank",
            "n_users": n_users,
            "n_movies": n_movies,
            "density": density,
            "num_latents": list(num_latents),
            "rank_counts": list(rank_counts),
            "burn_in": burn_in,
            "n_samples": n_samples,
            "hyper_mode": hyper_mode,
            "buffer_capacity": buffer_capacity,
            "seed": seed,
            "data_seed": data_seed,
            "note": ("socket ranks are threads on localhost TCP; on a "
                     "single-core machine this measures wire overhead, "
                     "not parallel speed-up"),
        },
        environment=machine_environment(),
    )
