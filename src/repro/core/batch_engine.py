"""Update engines: batched (stacked-BLAS) and reference per-item execution.

The three conditional-update kernels in :mod:`repro.core.updates` answer
the paper's Figure 2 question — *which algorithm* updates one item fastest
— but executing them one item at a time from Python caps every sampler on
interpreter overhead long before the linear algebra matters.  This module
factors the *execution strategy* out of the samplers behind a shared
:class:`UpdateEngine` interface with two implementations:

* :class:`ReferenceUpdateEngine` — the original per-item loop calling
  :func:`repro.core.updates.sample_item`.  Kept as the semantic oracle for
  the parity harness and for per-item thread scheduling experiments.
* :class:`BatchedUpdateEngine` — groups items into exact-degree buckets
  (:mod:`repro.sparse.buckets`), forms every bucket's Gram matrices with
  one stacked ``matmul``, factorises them with one stacked
  ``np.linalg.cholesky`` and draws all conditional samples with batched
  solves.  The paper's hybrid method selection survives as *bucket-boundary
  policy*: a bucket whose degree falls in the parallel-Cholesky regime has
  its Gram accumulation split into the same row blocks the parallel kernel
  would use, so the blocked summation structure (and its parallelism
  opportunity) is preserved at bucket granularity.

Both engines consume a pre-drawn ``(n_items, K)`` noise matrix in
canonical item order.  Because ``rng.standard_normal((n, k))`` reads the
underlying bit stream exactly like ``n`` successive ``standard_normal(k)``
calls, a sampler that pre-draws the phase noise and then runs *either*
engine sees the same random stream as the historical per-item loop — this
is the pre-drawn-noise parity trick extended to the batched order.

Per-item arithmetic inside the batched engine uses only per-slice LAPACK
operations (stacked ``matmul``/``cholesky``/``solve`` apply one routine per
slice), so an item's sample does not depend on which other items share its
bucket.  The distributed sampler exploits this: per-rank subsets produce
bitwise-identical rows to the full-matrix plan.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.priors import GaussianPrior
from repro.core.updates import HybridUpdatePolicy, UpdateMethod, sample_item
from repro.sparse.buckets import BucketPlan, DegreeBucket, cached_bucket_plan
from repro.sparse.csr import CompressedAxis
from repro.utils.validation import ValidationError

__all__ = [
    "UpdateEngine",
    "ReferenceUpdateEngine",
    "BatchedUpdateEngine",
    "available_engines",
    "make_update_engine",
]

#: Dtypes an engine may compute in.  ``float64`` (default) preserves the
#: bit-exact parity guarantees; ``float32`` halves memory bandwidth on the
#: stacked kernels at the cost of ~1e-4-relative agreement with the
#: reference chain.
COMPUTE_DTYPES = ("float64", "float32")

#: ``parallel_map(func, items)`` calls ``func(item)`` for every item; a
#: sampler with ``n_workers`` threads passes its thread backend's
#: ``map_items`` here (see :func:`repro.core.gibbs.make_phase_engine`).
ParallelMap = Callable[[Callable[[int], None], Sequence[int]], object]


class UpdateEngine:
    """Executes one full phase of conditional factor updates.

    A *phase* resamples every item of one entity class (all movies, or all
    users) from its conditional Gaussian, holding the other class's factors
    fixed.  Engines differ only in execution strategy; all draw from the
    same distribution and consume the same noise rows.

    Subclasses implement :meth:`update_items`.
    """

    #: Registry name (``SamplerOptions.engine`` value selecting this engine).
    name: str = ""

    #: True when the engine schedules its own parallel execution (the
    #: shared-memory process backend); samplers must then pass
    #: ``parallel_map=None`` instead of wrapping it in a thread pool.
    manages_parallelism: bool = False

    def __init__(self, update_method: Optional[UpdateMethod] = None,
                 policy: Optional[HybridUpdatePolicy] = None,
                 compute_dtype: str = "float64"):
        if compute_dtype not in COMPUTE_DTYPES:
            raise ValidationError(
                f"compute_dtype must be one of {COMPUTE_DTYPES}, "
                f"got {compute_dtype!r}")
        self.update_method = update_method
        self.policy = policy or HybridUpdatePolicy()
        self.compute_dtype = compute_dtype
        self._dtype = np.dtype(compute_dtype)

    def close(self) -> None:
        """Release engine-owned resources (worker pools, shared memory).

        A no-op for in-process engines.  Safe to call repeatedly; an engine
        remains usable after ``close`` (resources are re-acquired lazily).
        The samplers call this in a ``finally`` around their sweep loop so
        an interrupted run never leaks.
        """

    def __enter__(self) -> "UpdateEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def update_items(self, target: np.ndarray, source: np.ndarray,
                     axis: CompressedAxis, prior: GaussianPrior, alpha: float,
                     noise: np.ndarray, items: Optional[np.ndarray] = None,
                     parallel_map: Optional[ParallelMap] = None) -> int:
        """Resample factor rows of ``target`` in place; returns items updated.

        Parameters
        ----------
        target:
            ``(n_items, K)`` factor matrix being resampled (written).
        source:
            The other entity class's factor matrix (read-only this phase).
        axis:
            Compressed view mapping each target item to its rating partners
            (``ratings.by_movie`` for the movie phase, ``by_user`` for users).
        prior:
            Current Gaussian prior of the target entity class.
        alpha:
            Observation precision.
        noise:
            ``(n_items, K)`` standard-normal rows, indexed by *global* item
            id — item ``i`` always consumes ``noise[i]`` regardless of
            execution order, which is what makes every engine/backend
            combination reproduce the same chain.
        items:
            Optional subset of item indices to update (the distributed
            sampler passes each rank's owned items); default all.
        parallel_map:
            Optional ``map(func, indices)`` used to execute independent
            units (items for the reference engine, buckets for the batched
            engine) concurrently.  Default: a plain loop.
        """
        raise NotImplementedError

    def _choose_method(self, degree: int) -> UpdateMethod:
        if self.update_method is not None:
            return self.update_method
        return self.policy.choose(degree)


class ReferenceUpdateEngine(UpdateEngine):
    """The original per-item Python loop (semantic oracle for parity tests)."""

    name = "reference"

    def __init__(self, update_method: Optional[UpdateMethod] = None,
                 policy: Optional[HybridUpdatePolicy] = None,
                 compute_dtype: str = "float64"):
        if compute_dtype != "float64":
            # The per-item kernels are float64-only; a silently ignored
            # reduced-precision request would invalidate parity baselines.
            raise ValidationError(
                "the reference engine always computes in float64; "
                f"got compute_dtype={compute_dtype!r}")
        super().__init__(update_method, policy, compute_dtype)

    def update_items(self, target, source, axis, prior, alpha, noise,
                     items=None, parallel_map=None):
        if items is None:
            items = range(axis.n)

        def update(item: int) -> None:
            idx, values = axis.slice(item)
            target[item] = sample_item(
                source[idx], values, prior, alpha, noise=noise[item],
                method=self.update_method, policy=self.policy)

        if parallel_map is None:
            for item in items:
                update(int(item))
        else:
            parallel_map(update, items)
        return len(items)


class BatchedUpdateEngine(UpdateEngine):
    """Stacked-BLAS execution: one LAPACK pass per exact-degree bucket.

    For a bucket of ``m`` items of degree ``d`` the engine gathers the
    ``(m, d, K)`` neighbour factor tensor ``X`` and computes, for all items
    at once::

        precision = Lambda + alpha * X^T X          (stacked matmul)
        rhs       = Lambda mu + alpha * X^T r       (stacked matmul)
        L         = cholesky(precision)             (stacked potrf)
        mean      = solve(precision, rhs)           (stacked solve)
        sample    = mean + solve(L^T, z)            (stacked solve)

    Buckets in the parallel-Cholesky regime (degree >=
    ``policy.parallel_threshold``) accumulate ``X^T X`` over the same row
    blocks :func:`repro.core.updates.sample_item_parallel_cholesky` uses,
    preserving the paper's blocked-Gram structure at bucket granularity.
    The method selection (forced or policy-chosen) controls *only* that
    accumulation structure: this engine never runs the incremental
    rank-one kernel — a bucket in the rank-one regime (or with a forced
    ``RANK_ONE``) takes the single-pass Gram path, which samples the same
    distribution at lower cost.  Experiments that need the literal
    per-kernel execution (e.g. Figure 2 timings) must use the reference
    engine.

    Bucket plans are structural (sparsity-only) and cached per
    ``(axis, items)`` pair in the module-level cache of
    :mod:`repro.sparse.buckets`, so repeated sweeps — and *other* engine
    instances touching the same axis — pay no planning cost.

    ``compute_dtype`` selects the arithmetic precision of the stacked
    kernels.  ``float64`` (default) is bit-identical to the historical
    behaviour; ``float32`` halves the memory traffic of the gather and
    matmul passes and agrees with the float64 chain to single-precision
    tolerance (factor rows are cast back to the target's dtype on store).
    """

    name = "batched"

    # -- planning ---------------------------------------------------------

    def _plan_for(self, axis: CompressedAxis,
                  items: Optional[np.ndarray]) -> BucketPlan:
        return cached_bucket_plan(axis, items, value_dtype=self._dtype)

    # -- the batched kernel ----------------------------------------------

    def _update_bucket(self, bucket: DegreeBucket, target: np.ndarray,
                       source: np.ndarray, prior: GaussianPrior, alpha: float,
                       noise: np.ndarray) -> None:
        """One stacked update; ``source`` and ``bucket.values`` must already
        be in the compute dtype (``update_items`` and the shared-memory
        workers guarantee this)."""
        m, d = bucket.n_items, bucket.degree
        k = prior.num_latent
        dtype = self._dtype
        # (m, d, K) neighbour factor blocks and (m, d, 1) rating columns.
        blocks = source[bucket.neighbours]
        values = bucket.values[:, :, None]

        prior_precision = np.asarray(prior.precision, dtype=dtype)
        prior_mean = np.asarray(prior.mean, dtype=dtype)
        alpha = dtype.type(alpha)
        precision = np.broadcast_to(prior_precision, (m, k, k)).copy()
        rhs = np.broadcast_to(prior_precision @ prior_mean, (m, k)).copy()
        if d:
            method = self._choose_method(d)
            if method is UpdateMethod.PARALLEL_CHOLESKY:
                # Mirror the parallel kernel's blocked Gram accumulation.
                n_blocks = min(self.policy.n_subtasks(d), d)
                for rows in np.array_split(np.arange(d), n_blocks):
                    sub = blocks[:, rows, :]
                    precision += alpha * (sub.transpose(0, 2, 1) @ sub)
                    rhs += alpha * (sub.transpose(0, 2, 1)
                                    @ values[:, rows, :])[:, :, 0]
            else:
                precision += alpha * (blocks.transpose(0, 2, 1) @ blocks)
                rhs += alpha * (blocks.transpose(0, 2, 1) @ values)[:, :, 0]

        chol = np.linalg.cholesky(precision)
        # mean + L^-T z  ==  L^-T (L^-1 rhs + z): two stacked triangular
        # solves reusing the factor just computed, instead of refactorising
        # `precision` for the mean.
        z = np.asarray(noise[bucket.items], dtype=dtype)[:, :, None]
        half = np.linalg.solve(chol, rhs[:, :, None])
        sample = np.linalg.solve(chol.transpose(0, 2, 1), half + z)
        target[bucket.items] = sample[:, :, 0]

    def update_items(self, target, source, axis, prior, alpha, noise,
                     items=None, parallel_map=None):
        plan = self._plan_for(axis, items)
        source = np.asarray(source, dtype=self._dtype)

        def run_bucket(index: int) -> None:
            self._update_bucket(plan.buckets[index], target, source,
                                prior, alpha, noise)

        if parallel_map is None:
            for index in range(plan.n_buckets):
                run_bucket(index)
        else:
            # Buckets touch disjoint target rows, so they are race-free units.
            parallel_map(run_bucket, range(plan.n_buckets))
        return plan.n_planned_items


def _engine_registry():
    # The shared-memory engine subclasses BatchedUpdateEngine, so its module
    # imports this one; resolving the registry lazily breaks that cycle.
    from repro.core.shared_engine import SharedMemoryUpdateEngine

    return {
        ReferenceUpdateEngine.name: ReferenceUpdateEngine,
        BatchedUpdateEngine.name: BatchedUpdateEngine,
        SharedMemoryUpdateEngine.name: SharedMemoryUpdateEngine,
    }


def available_engines() -> Tuple[str, ...]:
    """Names accepted by ``SamplerOptions.engine`` and friends."""
    return tuple(_engine_registry())


def make_update_engine(engine: str,
                       update_method: Optional[UpdateMethod] = None,
                       policy: Optional[HybridUpdatePolicy] = None,
                       compute_dtype: str = "float64",
                       n_workers: Optional[int] = None) -> UpdateEngine:
    """Instantiate an update engine by registry name.

    ``engine`` is ``"batched"`` (default everywhere), ``"reference"`` (the
    per-item oracle) or ``"shared"`` (the zero-copy shared-memory process
    backend).  ``compute_dtype`` selects the kernel precision (rejected by
    the float64-only reference engine); ``n_workers`` is only meaningful
    for ``"shared"`` and is rejected otherwise rather than silently
    ignored.
    """
    registry = _engine_registry()
    if engine not in registry:
        raise ValidationError(
            f"unknown update engine {engine!r}; "
            f"available: {', '.join(registry)}")
    kwargs = dict(update_method=update_method, policy=policy,
                  compute_dtype=compute_dtype)
    if registry[engine].manages_parallelism:
        kwargs["n_workers"] = n_workers
    elif n_workers is not None:
        raise ValidationError(
            f"engine {engine!r} does not take n_workers "
            "(only the 'shared' process backend does)")
    return registry[engine](**kwargs)
