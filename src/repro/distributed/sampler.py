"""Asynchronous distributed BPMF Gibbs sampler.

Every rank owns a block of users and a block of movies (from the
workload-aware partition) and keeps its *own copies* of ``U`` and ``V``.
Within one iteration:

1. movie hyperparameters are obtained from an allreduce of per-rank
   sufficient statistics (or a gather of the factor matrix when exact
   reproducibility against the sequential sampler is wanted);
2. every rank updates the movies it owns, using the user factors it holds
   locally (authoritative for its own users, last-received copies for
   remote users — which are up to date because they were exchanged at the
   end of the previous user phase);
3. as items are updated they are appended to per-destination send buffers
   which are shipped with non-blocking sends when full ("communication
   overlapping computation"); leftover buffers are flushed at the end of
   the phase and every rank applies the factor rows it received;
4. the user phase repeats steps 1–3 with the roles swapped;
5. the test points are predicted from the authoritative rows gathered at
   rank 0 and the RMSE traces are recorded.

Because ranks only ever see remote data that arrived in messages, a wrong
or incomplete communication plan makes the result diverge from the
sequential reference — the accuracy-parity tests exploit exactly this.

There is one implementation of this algorithm: the per-rank program of
:mod:`repro.distributed.spmd`, which this module's sampler runs either on
threads of one process or as one rank of a multi-process world.  In
``"gather"`` mode its chain is bit-identical to the sequential
:class:`repro.core.gibbs.GibbsSampler` for any rank count and transport.
Bulk-synchronous exchange (one message per communicating rank pair and
phase, the "more common synchronous approach" the paper compares
against) is ``buffer_capacity`` set to at least the items of a phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.gibbs import BPMFResult, ResumeLike
from repro.core.priors import BPMFConfig
from repro.core.updates import HybridUpdatePolicy, UpdateMethod
from repro.distributed.comm_plan import CommunicationPlan
from repro.distributed.partition import Partition
from repro.mpi.buffers import BufferStats
from repro.parallel.cost_model import WorkloadModel
from repro.sparse.csr import RatingMatrix
from repro.sparse.split import RatingSplit
from repro.utils.rng import SeedLike
from repro.utils.validation import ValidationError, check_in, check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving -> core)
    from repro.serving.checkpoint import CheckpointConfig

__all__ = ["DistributedOptions", "DistributedGibbsSampler", "DistributedRunInfo"]


@dataclass
class DistributedOptions:
    """Execution options of the distributed sampler.

    ``checkpoint`` enables save-every-k-sweeps posterior snapshots of the
    authoritative state, gathered and saved by rank 0.  At a sweep boundary
    every rank's copy of each factor row it will read next sweep equals the
    authoritative row (they were exchanged at the end of the phase that
    last wrote them), so resuming by handing all ranks the gathered state
    reproduces the uninterrupted chain exactly.

    ``buffer_capacity`` is the number of items per message; a capacity of
    at least the items a rank updates in one phase gives bulk-synchronous
    exchange (one message per communicating rank pair and phase).
    """

    n_ranks: int = 4
    buffer_capacity: int = 64
    reorder: bool = True
    hyper_mode: str = "stats"  # "stats" (allreduce) or "gather" (exact parity)
    update_method: Optional[UpdateMethod] = None
    policy: HybridUpdatePolicy = field(default_factory=HybridUpdatePolicy)
    engine: str = "batched"  # update execution strategy (see core.batch_engine)
    compute_dtype: str = "float64"  # kernel precision of the batched/shared engines
    #: Per-rank phase parallelism, as ``SamplerOptions.n_workers``: every
    #: rank runs its block on its own processes (``engine="shared"``) or
    #: threads, as a cluster node does on its local cores.
    n_workers: Optional[int] = None
    workload: WorkloadModel = field(default_factory=WorkloadModel)
    keep_sample_predictions: bool = False
    checkpoint: Optional["CheckpointConfig"] = None

    def __post_init__(self):
        check_positive("n_ranks", self.n_ranks)
        check_positive("buffer_capacity", self.buffer_capacity)
        check_in("hyper_mode", self.hyper_mode, ("stats", "gather"))


@dataclass
class DistributedRunInfo:
    """Diagnostics of one distributed run (traffic, partition quality).

    ``n_messages``/``bytes_sent`` count the wire frames a rank sent (data,
    collectives and barrier markers) and ``buffer_stats`` its factor-row
    buffers: this rank's under a per-process world, summed over the ranks
    for an in-process run.
    """

    partition: Partition
    plan: CommunicationPlan
    buffer_stats: BufferStats
    n_messages: int
    bytes_sent: float
    items_exchanged_per_iteration: int


class DistributedGibbsSampler:
    """Distributed BPMF: the SPMD rank program of :mod:`repro.distributed.spmd`.

    The sampler object only holds the configuration; every rank builds
    (and closes) its own engine inside the run, so one sampler can drive
    any number of runs, on any transport.
    """

    def __init__(self, config: BPMFConfig | None = None,
                 options: DistributedOptions | None = None):
        self.config = config or BPMFConfig()
        self.options = options or DistributedOptions()

    def run(self, train: RatingMatrix, split: RatingSplit | None = None,
            seed: SeedLike = 0, partition: Partition | None = None,
            resume: Optional[ResumeLike] = None,
            comm_world=None) -> Tuple[Optional[BPMFResult], DistributedRunInfo]:
        """Run the distributed sampler; returns ``(result, diagnostics)``.

        ``comm_world`` selects the transport.  ``None`` (the default)
        hosts all ``n_ranks`` ranks on threads of this process over
        localhost sockets (:func:`repro.distributed.spmd.run_local_world`)
        and returns rank 0's result with the traffic summed over the
        ranks.  A per-process world — anything with a ``rank`` attribute,
        e.g. :class:`repro.mpi.net.SocketCommWorld` — runs only this
        process's rank (:func:`repro.distributed.spmd.run_spmd`); the
        result then comes back on rank 0 only (``None`` elsewhere) and
        the traffic counts this rank's sends.

        ``resume`` continues a checkpointed chain: rank 0 opens the
        snapshot and broadcasts its factors, generator state and sweep,
        so the completed run matches an uninterrupted one bit for bit.
        Under a per-process world every rank passes the same ``resume``
        argument, but only rank 0 needs the file.  Traffic diagnostics
        restart from zero at the resume point.
        """
        from repro.distributed.spmd import run_local_world, run_spmd

        if comm_world is None:
            return run_local_world(self, train, split, seed=seed,
                                   partition=partition, resume=resume)
        if not hasattr(comm_world, "rank"):
            raise ValidationError(
                "comm_world must be None (ranks on local threads) or a "
                "per-process world with a .rank, e.g. SocketCommWorld; a "
                "simulated SimCommWorld is no longer a training transport")
        return run_spmd(self, comm_world, train, split, seed=seed,
                        partition=partition, resume=resume)
