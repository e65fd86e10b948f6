"""Accuracy parity — "all versions reach the same level of prediction accuracy".

Section V-B of the paper states that every parallel implementation of BPMF
reaches the same test RMSE as the others.  This driver runs the sequential
reference, the threaded sampler (2 threads) and the distributed sampler
(in both the exact-parity "gather" mode and the production "stats" mode)
on the same dataset with the same random seed and reports their RMSE
traces, the pairwise final-RMSE differences and whether the factor
matrices are bit-for-bit identical (``np.array_equal``) to the
sequential chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.gibbs import BPMFResult, GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset
from repro.distributed.sampler import DistributedGibbsSampler, DistributedOptions
from repro.sparse.split import RatingSplit
from repro.sparse.csr import RatingMatrix
from repro.utils.tables import Table

__all__ = ["AccuracyParityResult", "run_accuracy_parity"]


@dataclass
class AccuracyParityResult:
    """Final RMSE per implementation and exactness flags."""

    results: Dict[str, BPMFResult]
    exact_match: Dict[str, bool]
    baseline_name: str = "sequential"

    @property
    def final_rmse(self) -> Dict[str, float]:
        return {name: result.final_rmse for name, result in self.results.items()}

    def max_rmse_gap(self) -> float:
        """Largest |RMSE difference| between any implementation and the baseline."""
        baseline = self.results[self.baseline_name].final_rmse
        return max(abs(result.final_rmse - baseline)
                   for result in self.results.values())

    def to_table(self) -> Table:
        table = Table(
            ["implementation", "final RMSE", "delta vs sequential", "bitwise identical"],
            title="Accuracy parity across BPMF implementations",
        )
        baseline = self.results[self.baseline_name].final_rmse
        for name, result in self.results.items():
            table.add_row(
                name,
                result.final_rmse,
                result.final_rmse - baseline,
                str(self.exact_match.get(name, False)),
            )
        return table


def run_accuracy_parity(
    train: RatingMatrix | None = None,
    split: RatingSplit | None = None,
    config: Optional[BPMFConfig] = None,
    n_ranks: int = 4,
    seed: int = 7,
) -> AccuracyParityResult:
    """Run all sampler variants on one dataset and compare their accuracy."""
    if train is None or split is None:
        data = make_low_rank_dataset(SyntheticConfig(
            n_users=150, n_movies=100, rank=6, density=0.15, noise_std=0.3,
            seed=seed))
        train, split = data.split.train, data.split
    config = config or BPMFConfig(num_latent=6, burn_in=6, n_samples=14, alpha=4.0)

    results: Dict[str, BPMFResult] = {}
    results["sequential"] = GibbsSampler(config).run(train, split, seed=seed)
    results["multicore"] = GibbsSampler(
        config, SamplerOptions(n_workers=2)).run(train, split, seed=seed)
    dist_exact, _ = DistributedGibbsSampler(
        config, DistributedOptions(n_ranks=n_ranks, hyper_mode="gather")
    ).run(train, split, seed=seed)
    results["distributed (gather)"] = dist_exact
    dist_stats, _ = DistributedGibbsSampler(
        config, DistributedOptions(n_ranks=n_ranks, hyper_mode="stats")
    ).run(train, split, seed=seed)
    results["distributed (stats)"] = dist_stats

    reference = results["sequential"].state
    exact_match = {
        name: bool(np.array_equal(result.state.user_factors,
                                  reference.user_factors)
                   and np.array_equal(result.state.movie_factors,
                                      reference.movie_factors))
        for name, result in results.items()
    }
    return AccuracyParityResult(results=results, exact_match=exact_match)
