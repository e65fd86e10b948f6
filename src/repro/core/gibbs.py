"""The in-process BPMF Gibbs sampler (Algorithm 1 of the paper).

Run sequentially, it is the reference implementation every parallel
variant is validated against.  One sweep:

1. resample the movie hyperparameters from ``V``;
2. update every movie's factor from the users that rated it;
3. resample the user hyperparameters from ``U``;
4. update every user's factor from the movies they rated;
5. predict all test points and record RMSE (per-sample and posterior-mean).

With ``SamplerOptions(n_workers=k)`` the same sampler is the paper's
shared-memory variant: a phase's items are independent, so they run on
``k`` threads and still sample the sequential chain bit for bit.
:class:`ChainRun`, the bookkeeping around the sweeps, is shared with rank
0 of the distributed program (:func:`repro.distributed.spmd.run_spmd`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

import numpy as np

from repro.core.batch_engine import (
    BatchedUpdateEngine,
    ParallelMap,
    UpdateEngine,
    make_update_engine,
)
from repro.core.metrics import rmse
from repro.core.predict import FactorMeanAccumulator, PosteriorPredictor
from repro.core.priors import BPMFConfig
from repro.core.shared_engine import SharedMemoryUpdateEngine
from repro.core.state import BPMFState, initialize_state
from repro.core.updates import HybridUpdatePolicy, UpdateMethod
from repro.core.wishart import sample_hyperparameters
from repro.parallel.thread_backend import ThreadPoolBackend
from repro.sparse.csr import RatingMatrix
from repro.sparse.split import RatingSplit
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving -> core)
    from repro.serving.checkpoint import CheckpointConfig, Snapshot

__all__ = ["SamplerOptions", "BPMFResult", "ChainRun", "GibbsSampler",
           "make_phase_engine"]

#: A resume source: an in-memory snapshot or a path to a saved one.
ResumeLike = Union["Snapshot", str, "os.PathLike"]

logger = get_logger("core.gibbs")

#: Items per thread task for the reference engine, whose unit of work (one
#: item) is too small to submit alone; the batched engine submits buckets.
REFERENCE_CHUNK = 64


@dataclass
class SamplerOptions:
    """Execution options orthogonal to the statistical model.

    ``update_method`` forces one of the three kernels for every item;
    ``None`` (default) uses the hybrid policy, as the paper does.  Under
    the ``"reference"`` engine the forced kernel is executed literally;
    the ``"batched"`` engine always factorises the stacked Gram matrices
    and honours the method only as accumulation structure (blocked for
    ``PARALLEL_CHOLESKY``, single-pass otherwise — a forced ``RANK_ONE``
    runs the single-pass Gram path).  All kernels sample the same
    distribution, so this changes cost profile, never statistics; use
    ``engine="reference"`` when per-kernel timing fidelity matters (as
    the Figure 2 driver does).

    ``engine`` selects how a phase's item updates are *executed*:
    ``"batched"`` (default) runs them through the stacked-BLAS
    :class:`repro.core.batch_engine.BatchedUpdateEngine`, ``"reference"``
    keeps the historical per-item loop, and ``"shared"`` maps the degree
    buckets across a pool of ``n_workers`` processes over shared memory
    (:class:`repro.core.shared_engine.SharedMemoryUpdateEngine`).  All
    engines consume the same random stream, so they sample from identical
    chains up to floating-point rounding (bit-identical for
    batched/shared; see ``tests/test_batch_engine_parity.py``).

    ``compute_dtype`` selects the kernel precision of the batched/shared
    engines (``"float32"`` trades exact parity for halved memory
    bandwidth).

    ``n_workers`` sets the parallelism of a phase, per engine:

    * ``"shared"`` — the size of its process pool (``None``: one worker
      per CPU);
    * ``"batched"`` — the number of threads its degree buckets are mapped
      over, one bucket per task;
    * ``"reference"`` — the number of threads its items are mapped over,
      in chunks of :data:`REFERENCE_CHUNK` items.

    ``None`` runs an in-process engine on the calling thread, with no
    pool.  Any thread count samples the same chain bit for bit.

    ``checkpoint`` (a :class:`repro.serving.checkpoint.CheckpointConfig`)
    enables save-every-k-sweeps posterior snapshots; a run resumed from one
    (``run(..., resume=...)``) is bit-identical to an uninterrupted run.
    """

    update_method: Optional[UpdateMethod] = None
    policy: HybridUpdatePolicy = field(default_factory=HybridUpdatePolicy)
    engine: str = "batched"
    compute_dtype: str = "float64"
    n_workers: Optional[int] = None
    keep_sample_predictions: bool = False
    verbose: bool = False
    callback: Optional[Callable[["BPMFState", int], None]] = None
    checkpoint: Optional["CheckpointConfig"] = None


def make_phase_engine(options) -> Tuple[UpdateEngine, Optional[ParallelMap]]:
    """The update engine ``options`` select, and the thread map it runs on.

    ``options`` is a :class:`SamplerOptions` or a
    :class:`repro.distributed.sampler.DistributedOptions`; both carry the
    engine fields, and ``n_workers`` means the same on both (see
    :class:`SamplerOptions`).  The map is ``None`` when the phase runs on
    the calling thread or the engine schedules its own processes.
    """
    processes = options.engine == SharedMemoryUpdateEngine.name
    engine = make_update_engine(
        options.engine, update_method=options.update_method,
        policy=options.policy, compute_dtype=options.compute_dtype,
        n_workers=options.n_workers if processes else None)
    if processes or options.n_workers is None:
        return engine, None
    chunk = 1 if isinstance(engine, BatchedUpdateEngine) else REFERENCE_CHUNK
    return engine, ThreadPoolBackend(options.n_workers, chunk).map_items


@dataclass
class BPMFResult:
    """Output of a BPMF run.

    Attributes
    ----------
    state:
        Final sampler state (last Gibbs sample).
    rmse_per_sample:
        Test RMSE of each individual post-burn-in sample.
    rmse_running_mean:
        Test RMSE of the running posterior-mean prediction after each
        post-burn-in sweep (this is the curve the paper's "same level of
        prediction accuracy" claim refers to).
    rmse_burn_in:
        Test RMSE trace during burn-in (single-sample predictions).
    predictions:
        Final posterior-mean predictions for the test points.
    sample_predictions:
        Per-sample prediction matrix when requested, else ``None``.
    factor_means:
        Running posterior-mean factor accumulator over the post-burn-in
        samples — what a snapshot serves from; ``None`` when no sample was
        accumulated (burn-in-only runs).
    """

    config: BPMFConfig
    state: BPMFState
    rmse_per_sample: List[float]
    rmse_running_mean: List[float]
    rmse_burn_in: List[float]
    predictions: np.ndarray
    sample_predictions: Optional[np.ndarray] = None
    items_updated: int = 0
    factor_means: Optional[FactorMeanAccumulator] = None

    @property
    def final_rmse(self) -> float:
        """Test RMSE of the posterior-mean prediction after all sweeps."""
        if not self.rmse_running_mean:
            raise ValidationError("no post-burn-in samples were accumulated")
        return self.rmse_running_mean[-1]


class ChainRun:
    """The bookkeeping of one chain around its sweeps, one per run.

    It opens the resume snapshot or initialises (and shape-checks) the
    state, picks the test points (the held-out split, else the training
    entries), owns the :class:`PosteriorPredictor` and the
    :class:`~repro.serving.checkpoint.TrainingCheckpointer`, evaluates
    and checkpoints every sweep and builds the :class:`BPMFResult`.  The
    caller runs the sweeps from ``state`` and ``rng`` (a resume snapshot
    replaces both), drawing from ``rng``: its state is what a checkpoint
    saves.
    """

    def __init__(self, config: BPMFConfig, options, train: RatingMatrix,
                 split: Optional[RatingSplit], rng: np.random.Generator,
                 state: Optional[BPMFState] = None,
                 resume: Optional[ResumeLike] = None):
        # Imported lazily: repro.serving depends on repro.core, so the
        # checkpoint layer cannot be a module-level import here.
        from repro.serving.checkpoint import TrainingCheckpointer

        snapshot, state, rng = TrainingCheckpointer.open_resume(resume, state,
                                                                rng)
        if state is None:
            state = initialize_state(train, config, rng)
        if state.n_users != train.n_users or state.n_movies != train.n_movies:
            raise ValidationError("state shape does not match the rating matrix")
        if split is not None and split.n_test > 0:
            self._test = split.test_triplets()
        else:
            self._test = train.triplets()
        self.config = config
        self.state = state
        self.rng = rng
        self._keep_samples = options.keep_sample_predictions
        self.predictor = PosteriorPredictor(self._test[0], self._test[1],
                                            keep_samples=self._keep_samples)
        self.checkpointer = TrainingCheckpointer(config, options.checkpoint,
                                                 snapshot, state,
                                                 self.predictor)

    @property
    def iterations(self) -> range:
        """The sweeps still to run."""
        return range(self.checkpointer.start_iteration,
                     self.config.total_iterations)

    def record_sweep(self, iteration: int, state: BPMFState,
                     items_updated: int) -> None:
        """Evaluate, record and (when due) checkpoint sweep ``iteration``.

        ``state`` is the chain's state after that sweep; it becomes the
        result's state.
        """
        checkpointer, predictor = self.checkpointer, self.predictor
        test_users, test_movies, test_values = self._test
        self.state = state
        checkpointer.items_updated += items_updated
        sample_pred = state.predict(test_users, test_movies)
        if iteration >= self.config.burn_in:
            predictor.accumulate(state)
            mean_rmse = rmse(predictor.mean_prediction(), test_values)
        else:
            mean_rmse = None
        checkpointer.record(iteration, state, rmse(sample_pred, test_values),
                            mean_rmse)
        checkpointer.maybe_save(iteration, state, self.rng, predictor)

    def result(self) -> BPMFResult:
        """The run's :class:`BPMFResult`."""
        checkpointer, predictor = self.checkpointer, self.predictor
        return BPMFResult(
            config=self.config,
            state=self.state,
            rmse_per_sample=checkpointer.rmse_per_sample,
            rmse_running_mean=checkpointer.rmse_running_mean,
            rmse_burn_in=checkpointer.rmse_burn_in,
            predictions=predictor.mean_prediction(),
            sample_predictions=(predictor.sample_matrix()
                                if self._keep_samples else None),
            items_updated=checkpointer.items_updated,
            factor_means=(checkpointer.factor_means
                          if checkpointer.factor_means.n_samples else None),
        )


class GibbsSampler:
    """BPMF Gibbs sampler in one process: sequential, threaded or over a
    process pool, as ``options`` select (see :class:`SamplerOptions`).

    Parameters
    ----------
    config:
        Model and sweep configuration.
    options:
        Execution options (engine, workers, logging, callbacks).

    Example
    -------
    >>> from repro.datasets import make_low_rank_dataset
    >>> from repro.core import BPMFConfig, GibbsSampler
    >>> data = make_low_rank_dataset(n_users=50, n_movies=40, density=0.3, seed=1)
    >>> sampler = GibbsSampler(BPMFConfig(num_latent=4, burn_in=2, n_samples=4))
    >>> result = sampler.run(data.split.train, data.split, seed=0)
    >>> result.final_rmse > 0
    True
    """

    def __init__(self, config: BPMFConfig | None = None,
                 options: SamplerOptions | None = None):
        self.config = config or BPMFConfig()
        self.options = options or SamplerOptions()
        self._engine, self._parallel_map = make_phase_engine(self.options)

    @property
    def engine(self) -> UpdateEngine:
        """The update engine executing this sampler's item phases."""
        return self._engine

    # -- single building blocks --------------------------------------------

    def resample_hyperparameters(self, state: BPMFState,
                                 rng: np.random.Generator) -> None:
        """Resample both Gaussian priors from their Normal–Wishart posteriors."""
        state.movie_prior = sample_hyperparameters(
            state.movie_factors, self.config.movie_hyperprior, rng)
        state.user_prior = sample_hyperparameters(
            state.user_factors, self.config.user_hyperprior, rng)

    def sweep(self, state: BPMFState, ratings: RatingMatrix,
              rng: np.random.Generator) -> int:
        """One full Gibbs sweep over hyperparameters, movies and users.

        Returns the number of item updates performed (used for the
        items/second throughput metric of Figures 3 and 4).

        The phase noise is pre-drawn in canonical item order before the
        engine runs, so the random stream (and hence the chain) is the same
        for every engine, thread count and execution backend.
        """
        k = self.config.num_latent
        # Movies first, as in Algorithm 1 of the paper.
        state.movie_prior = sample_hyperparameters(
            state.movie_factors, self.config.movie_hyperprior, rng)
        movie_noise = rng.standard_normal((ratings.n_movies, k))
        self._engine.update_items(
            state.movie_factors, state.user_factors, ratings.by_movie,
            state.movie_prior, self.config.alpha, movie_noise,
            parallel_map=self._parallel_map)
        state.user_prior = sample_hyperparameters(
            state.user_factors, self.config.user_hyperprior, rng)
        user_noise = rng.standard_normal((ratings.n_users, k))
        self._engine.update_items(
            state.user_factors, state.movie_factors, ratings.by_user,
            state.user_prior, self.config.alpha, user_noise,
            parallel_map=self._parallel_map)
        state.iteration += 1
        return ratings.n_movies + ratings.n_users

    # -- full run -----------------------------------------------------------

    def run(self, train: RatingMatrix, split: RatingSplit | None = None,
            seed: SeedLike = 0, state: BPMFState | None = None,
            resume: Optional[ResumeLike] = None) -> BPMFResult:
        """Run burn-in plus sampling sweeps and return the result bundle.

        Parameters
        ----------
        train:
            Training rating matrix.
        split:
            Optional split providing held-out test points; when omitted the
            training entries themselves are used for the RMSE traces (useful
            for smoke tests but not a generalisation measure).
        seed:
            Random seed or generator.
        state:
            Optional pre-initialised state (used by warm-start experiments).
        resume:
            Snapshot (or path to one) to continue from: the chain restarts
            at the checkpointed sweep with the checkpointed generator state
            and accumulators, so the completed run is bit-identical to one
            that never stopped.  ``keep_sample_predictions`` only collects
            post-resume samples (per-sample vectors are not checkpointed).
        """
        chain = ChainRun(self.config, self.options, train, split,
                         as_generator(seed), state=state, resume=resume)
        state, rng = chain.state, chain.rng
        # The engine may own worker processes and shared-memory segments
        # (engine="shared"); closing in a finally guarantees they are
        # released even when a sweep raises or the run is interrupted.
        try:
            for iteration in chain.iterations:
                chain.record_sweep(iteration, state,
                                   self.sweep(state, train, rng))
                if self.options.verbose:
                    burn_in = iteration < self.config.burn_in
                    traces = chain.checkpointer
                    logger.info("iter %d (%s): rmse=%.4f", iteration,
                                "burn-in" if burn_in else "sample",
                                (traces.rmse_burn_in if burn_in
                                 else traces.rmse_running_mean)[-1])
                if self.options.callback is not None:
                    self.options.callback(state, iteration)
        finally:
            self._engine.close()
        return chain.result()
