"""Distributed Bayesian Probabilistic Matrix Factorization — reproduction.

A pure-Python reproduction of *"Distributed Bayesian Probabilistic Matrix
Factorization"* (Vander Aa, Chakroun, Haber — IEEE CLUSTER 2016): the BPMF
Gibbs sampler, its shared-memory parallelization (work stealing + hybrid
per-item kernels) and its distributed, asynchronously-communicating MPI
formulation, together with the simulated multicore and cluster substrates
needed to regenerate every figure of the paper's evaluation on a single
offline machine.

Quickstart
----------
>>> from repro import BPMFConfig, GibbsSampler, make_low_rank_dataset
>>> data = make_low_rank_dataset(n_users=100, n_movies=80, density=0.2, seed=0)
>>> result = GibbsSampler(BPMFConfig(num_latent=8, burn_in=5, n_samples=10)).run(
...     data.split.train, data.split, seed=0)
>>> round(result.final_rmse, 2) > 0
True

Package map
-----------
``repro.core``          the BPMF Gibbs sampler (sequential or threaded) and its
                        update kernels
``repro.sparse``        sparse rating-matrix substrate
``repro.datasets``      synthetic ChEMBL-like / MovieLens-like workloads
``repro.baselines``     ALS and SGD matrix factorization
``repro.parallel``      simulated multicore machine + schedulers
``repro.multicore``     the Figure 3 thread-scaling study on simulated schedulers
``repro.mpi``           simulated MPI world, network model, tracing
``repro.distributed``   distributed BPMF and the strong-scaling model (Figures 4-5)
``repro.serving``       posterior snapshots, exact resume, online serving
``repro.bench``         one driver per figure/claim of the paper
"""

from repro.core import (
    BPMF,
    BPMFConfig,
    BPMFResult,
    GibbsSampler,
    HybridUpdatePolicy,
    MacauGibbsSampler,
    SamplerOptions,
    SideInfo,
    UpdateMethod,
    recommend_for_user,
    run_chains,
)
from repro.baselines import ALSConfig, SGDConfig, run_als, run_sgd
from repro.datasets import (
    make_chembl_like,
    make_low_rank_dataset,
    make_movielens_like,
    make_scaling_workload,
    load_dataset,
    available_datasets,
)
from repro.distributed import (
    DistributedGibbsSampler,
    DistributedOptions,
    strong_scaling_study,
)
from repro.multicore import multicore_thread_sweep
from repro.serving import (
    CheckpointConfig,
    PredictionService,
    Snapshot,
    load_snapshot,
    save_snapshot,
    snapshot_from_result,
)
from repro.sparse import RatingMatrix, train_test_split

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "BPMF",
    "BPMFConfig",
    "BPMFResult",
    "GibbsSampler",
    "SamplerOptions",
    "HybridUpdatePolicy",
    "UpdateMethod",
    "MacauGibbsSampler",
    "SideInfo",
    "recommend_for_user",
    "run_chains",
    "ALSConfig",
    "SGDConfig",
    "run_als",
    "run_sgd",
    "make_low_rank_dataset",
    "make_chembl_like",
    "make_movielens_like",
    "make_scaling_workload",
    "load_dataset",
    "available_datasets",
    "DistributedGibbsSampler",
    "DistributedOptions",
    "strong_scaling_study",
    "multicore_thread_sweep",
    "CheckpointConfig",
    "PredictionService",
    "Snapshot",
    "load_snapshot",
    "save_snapshot",
    "snapshot_from_result",
    "RatingMatrix",
    "train_test_split",
]
