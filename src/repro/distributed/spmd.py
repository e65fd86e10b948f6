"""The distributed BPMF sampler as one per-rank (SPMD) program.

:func:`run_spmd` is the program *one* rank runs: every rank owns its
partition block, updates it through its own engine, streams the
refreshed rows to the ranks that read them through its communicator,
and rank 0 additionally evaluates (and checkpoints) the chain.  It is
the only execution path of
:meth:`repro.distributed.sampler.DistributedGibbsSampler.run`: a
per-process world (:class:`repro.mpi.net.SocketCommWorld`, one OS
process per rank) runs one rank, and :func:`run_local_world` hosts all
ranks on threads of the calling process over localhost sockets.

**Parity.**  In ``hyper_mode="gather"`` the chain is bit-identical to
the sequential :class:`repro.core.gibbs.GibbsSampler` — factors, RMSE
trajectory, predictions and posterior-mean factors, ties included — for
any rank count, thread-hosted or multi-process.  In ``"stats"`` mode the
hyperprior posterior comes from allreduced sufficient statistics, whose
summation order differs from the sequential sampler's by rounding only;
that chain is pinned by its own golden trajectory.  Four decisions make
this hold:

* *Replicated RNG.*  Every rank holds an identical generator seeded the
  same way and performs the sequential sampler's draw sequence:
  ``initialize_state``, then per sweep one normal-wishart draw and one
  full noise matrix per entity class.  Ranks draw the *full* noise
  matrix (not just their slice) so the streams stay in lockstep — noise
  is O(items × K) doubles per sweep, trivially affordable next to the
  factor exchange itself.
* *Rank-order reductions.*  ``SocketComm.allreduce`` gathers to rank 0
  and reduces in rank order, so every rank count and every host sees
  the same floating-point association.
* *Exact wire.*  Factor rows, sufficient statistics and posterior
  parameters cross the wire as binary float64 frames
  (:mod:`repro.serving.net.protocol`), bit-preserving by construction.
* *Plan-counted receives.*  A phase's receive loop knows exactly which
  item ids must arrive (the communication plan inverted for this rank)
  and runs until they all have.  Received rows land in disjoint slices,
  so arrival order — the one thing a real network does not guarantee —
  cannot affect the result; an unexpected id raises instead (a wrong
  plan must fail loudly).

**Engines.**  Each rank builds its own update engine and thread map with
:func:`repro.core.gibbs.make_phase_engine`, as the in-process sampler
does, and closes it when the run ends, so ``n_workers`` means per rank
what it means in one process (``engine="shared"``: processes, otherwise
threads) and a sampler object carries no per-rank state.

**Checkpoint/resume.**  Rank 0 keeps the chain's bookkeeping in the
in-process sampler's :class:`repro.core.gibbs.ChainRun`, fed with the
gathered authoritative state.  At a sweep boundary every rank's copy
of each row it reads next equals the authoritative row, so on resume
rank 0 opens the snapshot and broadcasts the factors, the generator
state and the start sweep; the other ranks adopt them and never touch
the file.
"""

from __future__ import annotations

import copy
import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.batch_engine import ParallelMap, UpdateEngine
from repro.core.gibbs import BPMFResult, ChainRun, ResumeLike, make_phase_engine
# Evaluation runs in ChainRun through ``repro.core.gibbs.rmse``; the name
# stays importable here because perfbench/layers.py times ``spmd.rmse`` too.
from repro.core.metrics import rmse  # noqa: F401
from repro.core.priors import GaussianPrior
from repro.core.state import BPMFState, initialize_state
from repro.core.wishart import (
    NormalWishartPrior,
    normal_wishart_posterior,
    normal_wishart_posterior_from_stats,
    sample_normal_wishart,
)
from repro.distributed.comm_plan import CommunicationPlan, build_comm_plan
from repro.distributed.partition import Partition, partition_ratings
from repro.mpi.buffers import BufferStats, SendBuffer
from repro.obs.trace import maybe_span
from repro.sparse.csr import RatingMatrix
from repro.sparse.split import RatingSplit
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.distributed.sampler import DistributedRunInfo

__all__ = ["run_spmd", "run_local_world", "expected_incoming"]

_PHASE_TAGS = {"movies": 1, "users": 2}
_GATHER_BASE_TAG = 100
_EVAL_TAG = 50


def expected_incoming(owner: np.ndarray,
                      destinations: List[np.ndarray],
                      rank: int) -> Set[int]:
    """Item ids this rank must receive in one phase.

    The communication plan lists, per item, the ranks that need its
    refreshed row; inverting it for ``rank`` gives the exact receive
    set, which is what lets the phase's receive loop *count* instead of
    guessing when the exchange is done.
    """
    expected: Set[int] = set()
    for item, dests in enumerate(destinations):
        if int(owner[item]) != rank and rank in dests:
            expected.add(item)
    return expected


def _bcast_posterior(comm, posterior: Optional[NormalWishartPrior],
                     root: int = 0) -> NormalWishartPrior:
    """Share a normal-wishart posterior bit-exactly from ``root``.

    The arrays ride the binary frame form (exact); the scalars ride
    JSON, which round-trips IEEE doubles exactly.
    """
    if comm.rank == root:
        assert posterior is not None
        payload = {"mu0": posterior.mu0, "beta0": float(posterior.beta0),
                   "W0": posterior.W0, "nu0": float(posterior.nu0)}
        comm.bcast(payload, root=root)
        return posterior
    payload = comm.bcast(None, root=root)
    return NormalWishartPrior(
        mu0=np.array(payload["mu0"], dtype=np.float64),
        beta0=float(payload["beta0"]),
        W0=np.array(payload["W0"], dtype=np.float64),
        nu0=float(payload["nu0"]),
    )


def _bcast_resume_point(comm, state: Optional[BPMFState],
                        rng: np.random.Generator, start: int
                        ) -> Tuple[BPMFState, np.random.Generator, int]:
    """Hand rank 0's restored chain position to every rank.

    Only rank 0 opened the snapshot; the factors ride binary frames
    (exact) and the generator state rides JSON (integers, exact).  The
    priors are redrawn before their first use, so the adopted state
    carries standard placeholders.
    """
    from repro.serving.checkpoint import encode_rng_state, restore_generator

    if comm.rank == 0:
        comm.bcast({"user_factors": state.user_factors,
                    "movie_factors": state.movie_factors,
                    "rng": encode_rng_state(rng), "start": int(start)},
                   root=0)
        return state, rng, start
    payload = comm.bcast(None, root=0)
    user_factors = np.array(payload["user_factors"], dtype=np.float64)
    k = user_factors.shape[1]
    adopted = BPMFState(
        user_factors=user_factors,
        movie_factors=np.array(payload["movie_factors"], dtype=np.float64),
        user_prior=GaussianPrior.standard(k),
        movie_prior=GaussianPrior.standard(k),
        iteration=int(payload["start"]))
    return adopted, restore_generator(payload["rng"]), int(payload["start"])


class _SpmdRank:
    """The state one rank carries through an SPMD run."""

    def __init__(self, config, options, engine: UpdateEngine,
                 parallel_map: Optional[ParallelMap], comm,
                 train: RatingMatrix, partition: Partition,
                 plan: CommunicationPlan, rng: np.random.Generator,
                 state: BPMFState):
        self.config = config
        self.options = options
        self.engine = engine
        self.parallel_map = parallel_map
        self.comm = comm
        self.rank = comm.rank
        self.train = train
        self.partition = partition
        self.plan = plan
        self.rng = rng
        self.user_factors = state.user_factors.copy()
        self.movie_factors = state.movie_factors.copy()
        self.buffer_stats = BufferStats()
        self.expected: Dict[str, Set[int]] = {
            "movies": expected_incoming(partition.movie_owner,
                                        plan.movie_destinations, self.rank),
            "users": expected_incoming(partition.user_owner,
                                       plan.user_destinations, self.rank),
        }

    # -- hyperparameters ---------------------------------------------------

    def sample_prior(self, entity: str, iteration: int) -> GaussianPrior:
        """Resample one entity class's Gaussian prior on every rank.

        Both modes end with *every* rank holding the identical posterior
        and drawing ``sample_normal_wishart`` from its own (lockstep)
        generator — the draw the sequential sampler performs once.
        """
        config, comm = self.config, self.comm
        hyperprior = (config.movie_hyperprior if entity == "movies"
                      else config.user_hyperprior)
        owned = (self.partition.movies_of(self.rank) if entity == "movies"
                 else self.partition.users_of(self.rank))
        matrix = (self.movie_factors if entity == "movies"
                  else self.user_factors)
        rows = matrix[owned]

        if self.options.hyper_mode == "gather":
            # Rank 0 rebuilds the full matrix in canonical order — bitwise
            # what the sequential sampler sees — and shares the posterior.
            tag = _GATHER_BASE_TAG + _PHASE_TAGS[entity]
            if self.rank == 0:
                n_items = (self.partition.n_movies if entity == "movies"
                           else self.partition.n_users)
                full = np.zeros((n_items, config.num_latent))
                full[owned] = rows
                for _ in range(comm.size - 1):
                    got_owned, got_rows = comm.recv(tag=tag)
                    full[np.asarray(got_owned)] = np.asarray(got_rows)
                posterior = normal_wishart_posterior(full, hyperprior)
                posterior = _bcast_posterior(comm, posterior)
            else:
                comm.isend((owned, rows), dest=0, tag=tag,
                           description=f"gather-{entity}")
                posterior = _bcast_posterior(comm, None)
        else:
            # Sufficient-statistics allreduce: (count, sum, sum of outer
            # products) flattened into one vector per rank.
            k = config.num_latent
            stats = np.concatenate([
                [float(rows.shape[0])],
                rows.sum(axis=0) if rows.size else np.zeros(k),
                (rows.T @ rows).ravel() if rows.size else np.zeros(k * k),
            ])
            result = comm.allreduce(stats, key=f"hyper-{entity}-{iteration}")
            n = int(round(result[0]))
            factor_sum = result[1:1 + k]
            factor_outer = result[1 + k:].reshape(k, k)
            posterior = normal_wishart_posterior_from_stats(
                n, factor_sum, factor_outer, hyperprior)
        return sample_normal_wishart(posterior, self.rng)

    # -- one phase ---------------------------------------------------------

    def run_phase(self, entity: str, prior: GaussianPrior,
                  noise: np.ndarray) -> None:
        """Update the owned block, then exchange refreshed rows."""
        config, comm = self.config, self.comm
        tag = _PHASE_TAGS[entity]
        if entity == "movies":
            owned_of = self.partition.movies_of
            destinations = self.plan.movie_destinations
            axis = self.train.by_movie
            target, source = self.movie_factors, self.user_factors
        else:
            owned_of = self.partition.users_of
            destinations = self.plan.user_destinations
            axis = self.train.by_user
            target, source = self.user_factors, self.movie_factors

        owned = np.asarray(owned_of(self.rank), dtype=np.int64)
        self.engine.update_items(target, source, axis, prior, config.alpha,
                                 noise, items=owned,
                                 parallel_map=self.parallel_map)

        with maybe_span("mpi.exchange", phase=entity, rank=self.rank):
            buffers: Dict[int, SendBuffer] = {}

            def flush(dest: int, ids: np.ndarray,
                      payload: np.ndarray) -> None:
                comm.isend((ids, payload), dest=dest, tag=tag,
                           description=f"{entity}-update")

            # Within a phase an item's conditional never reads same-class
            # factors, so streaming the rows after the engine ran sends
            # the values (and message pattern) of an interleaved loop.
            for item in owned:
                item = int(item)
                for dest in destinations[item]:
                    dest = int(dest)
                    if dest not in buffers:
                        buffers[dest] = SendBuffer(
                            dest, self.options.buffer_capacity,
                            config.num_latent, on_flush=flush)
                    buffers[dest].add(item, target[item])
            for buffer in buffers.values():
                buffer.flush(partial=True)
                self.buffer_stats = self.buffer_stats.merge(buffer.stats)

            # Counted receive: run until every planned incoming row of
            # this phase has arrived.  Rows land in disjoint slices, so
            # arrival order cannot change the state.
            remaining = set(self.expected[entity])
            while remaining:
                ids, payload = comm.recv(tag=tag)
                ids = np.asarray(ids)
                id_list = [int(item) for item in ids]
                stray = [item for item in id_list if item not in remaining]
                if stray:
                    raise ValidationError(
                        f"rank {self.rank} received {entity} rows "
                        f"{stray[:5]} it never planned for — the "
                        f"communication plan and the exchange loop are "
                        f"inconsistent")
                remaining.difference_update(id_list)
                target[ids] = np.asarray(payload)

    # -- evaluation gather -------------------------------------------------

    def gather_state(self, user_prior: GaussianPrior,
                     movie_prior: GaussianPrior,
                     iteration: int) -> Optional[BPMFState]:
        """Authoritative rows to rank 0 (``None`` on the other ranks)."""
        comm = self.comm
        users = self.partition.users_of(self.rank)
        movies = self.partition.movies_of(self.rank)
        if self.rank != 0:
            comm.isend((users, self.user_factors[users], movies,
                        self.movie_factors[movies]),
                       dest=0, tag=_EVAL_TAG, description="gather-eval")
            return None
        k = self.config.num_latent
        user_factors = np.zeros((self.partition.n_users, k))
        movie_factors = np.zeros((self.partition.n_movies, k))
        user_factors[users] = self.user_factors[users]
        movie_factors[movies] = self.movie_factors[movies]
        for _ in range(comm.size - 1):
            got = comm.recv(tag=_EVAL_TAG)
            got_users, user_rows, got_movies, movie_rows = got
            user_factors[np.asarray(got_users)] = np.asarray(user_rows)
            movie_factors[np.asarray(got_movies)] = np.asarray(movie_rows)
        return BPMFState(
            user_factors=user_factors,
            movie_factors=movie_factors,
            user_prior=user_prior,
            movie_prior=movie_prior,
            iteration=iteration,
        )


def _resolve_partition(train: RatingMatrix, options,
                       partition: Optional[Partition]) -> Partition:
    if partition is None:
        return partition_ratings(train, options.n_ranks,
                                 workload=options.workload,
                                 reorder=options.reorder)
    if partition.n_ranks != options.n_ranks:
        raise ValidationError("partition rank count does not match options")
    return partition


def run_spmd(sampler, world, train: RatingMatrix,
             split: Optional[RatingSplit] = None, seed: SeedLike = 0,
             partition: Optional[Partition] = None,
             resume: Optional[ResumeLike] = None
             ) -> Tuple[Optional[BPMFResult], "DistributedRunInfo"]:
    """Run one rank of the distributed sampler over a comm world.

    Every participating rank calls this with the *same* ``train``,
    ``split``, ``seed``, options and ``resume`` flag (the SPMD contract:
    partitioning and RNG replication both assume identical inputs; only
    rank 0 reads the ``resume`` snapshot, the others just need to know
    one is coming).  Rank 0 returns the full :class:`BPMFResult`; the
    other ranks return ``None`` for the result — they hold only their
    blocks.  Diagnostics come back on every rank, with traffic counted
    from this rank's transport.

    ``world`` is anything with the socket-world surface (``rank``,
    ``n_ranks``, ``comm()`` — see :class:`repro.mpi.net.SocketCommWorld`).
    The caller owns the world's lifetime; ``run_spmd`` leaves it open.
    """
    from repro.distributed.sampler import DistributedRunInfo

    config, options = sampler.config, sampler.options
    comm = world.comm()
    if world.n_ranks != options.n_ranks:
        raise ValidationError(
            f"world has {world.n_ranks} ranks but options.n_ranks is "
            f"{options.n_ranks} — the partition would not match")

    rng = as_generator(seed)
    chain: Optional[ChainRun] = None
    if comm.rank == 0:
        chain = ChainRun(config, options, train, split, rng, resume=resume)
        state, rng = chain.state, chain.rng
        start = chain.iterations.start
    elif resume is None:
        state, start = initialize_state(train, config, rng), 0
    else:
        state, start = None, 0
    if resume is not None:
        state, rng, start = _bcast_resume_point(comm, state, rng, start)

    partition = _resolve_partition(train, options, partition)
    plan = build_comm_plan(train, partition)
    engine, parallel_map = make_phase_engine(options)
    rank_state = _SpmdRank(config, options, engine, parallel_map, comm,
                           train, partition, plan, rng, state)
    user_prior = GaussianPrior.standard(config.num_latent)
    movie_prior = GaussianPrior.standard(config.num_latent)

    # engine="shared" owns worker processes and shared-memory segments;
    # the finally releases them even when a phase raises mid-run.
    try:
        for iteration in range(start, config.total_iterations):
            with maybe_span("mpi.sweep", iteration=iteration,
                            rank=comm.rank):
                movie_prior = rank_state.sample_prior("movies", iteration)
                movie_noise = rng.standard_normal((train.n_movies,
                                                   config.num_latent))
                rank_state.run_phase("movies", movie_prior, movie_noise)
                user_prior = rank_state.sample_prior("users", iteration)
                user_noise = rng.standard_normal((train.n_users,
                                                  config.num_latent))
                rank_state.run_phase("users", user_prior, user_noise)

                gathered = rank_state.gather_state(user_prior, movie_prior,
                                                   iteration + 1)
                if chain is not None:
                    chain.record_sweep(iteration, gathered,
                                       train.n_users + train.n_movies)
        # Everyone finishes before anyone tears its links down.
        comm.barrier()
    finally:
        engine.close()

    if world.pending_messages():
        raise ValidationError(
            f"rank {comm.rank} holds {world.pending_messages()} messages "
            f"that were never received — the communication plan and the "
            f"exchange loop are inconsistent")

    result = chain.result() if chain is not None else None
    info = DistributedRunInfo(
        partition=partition,
        plan=plan,
        buffer_stats=rank_state.buffer_stats,
        n_messages=world.total_messages_sent(),
        bytes_sent=float(world.total_bytes_sent()),
        items_exchanged_per_iteration=plan.total_items_exchanged(),
    )
    return result, info


def run_local_world(sampler, train: RatingMatrix,
                    split: Optional[RatingSplit] = None, seed: SeedLike = 0,
                    partition: Optional[Partition] = None,
                    resume: Optional[ResumeLike] = None,
                    injectors=None, op_timeout: Optional[float] = None
                    ) -> Tuple[BPMFResult, "DistributedRunInfo"]:
    """Host every rank of ``sampler`` on a thread of this process.

    Each rank runs :func:`run_spmd` over its own endpoint of a localhost
    socket world (:func:`repro.mpi.net.start_local_world`): real TCP
    links, framing and receiver threads — only the process boundary is
    elided.  Returns rank 0's result and the run's diagnostics with the
    traffic (messages, bytes, buffer statistics) summed over the ranks.

    ``injectors`` (one :class:`~repro.serving.chaos.plan.FaultInjector`
    slot per rank) and ``op_timeout`` pass through to the world.  The
    first rank to fail aborts its endpoint, so its peers fail within
    milliseconds instead of waiting out ``op_timeout``; every rank
    thread has ended and every endpoint is closed before that first
    failure is re-raised here.
    """
    from repro.distributed.sampler import DistributedRunInfo
    from repro.mpi.net import start_local_world
    from repro.mpi.net.world import DEFAULT_OP_TIMEOUT

    options = sampler.options
    n_ranks = options.n_ranks
    partition = _resolve_partition(train, options, partition)
    # Rank 0 draws from the caller's generator (advancing it as a
    # sequential run would); the others replay copies taken before any
    # draw, so a fresh-entropy seed still gives every rank one stream.
    rng = as_generator(seed)
    seeds = [rng] + [copy.deepcopy(rng) for _ in range(1, n_ranks)]
    worlds = start_local_world(
        n_ranks, injectors=injectors,
        op_timeout=DEFAULT_OP_TIMEOUT if op_timeout is None else op_timeout)
    outcomes: List[Optional[Tuple]] = [None] * n_ranks
    failures: List[BaseException] = []  # in order of occurrence

    def drive(rank: int) -> None:
        try:
            outcomes[rank] = run_spmd(sampler, worlds[rank], train, split,
                                      seed=seeds[rank], partition=partition,
                                      resume=resume)
        except BaseException as error:  # re-raised below
            failures.append(error)
            # A dead process drops its sockets; a dead thread must too,
            # so the peers fail fast instead of waiting out op_timeout.
            worlds[rank].abort(f"rank {rank} failed: {error!r}")

    threads = [threading.Thread(target=drive, args=(rank,), daemon=True,
                                name=f"repro-spmd-rank-{rank}")
               for rank in range(n_ranks)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for world in worlds:
            world.close()
    if failures:
        # The first failure is the cause; the rest are peers seeing it.
        raise failures[0]

    result, info = outcomes[0]
    buffer_stats = BufferStats()
    for _, rank_info in outcomes:
        buffer_stats = buffer_stats.merge(rank_info.buffer_stats)
    return result, DistributedRunInfo(
        partition=info.partition,
        plan=info.plan,
        buffer_stats=buffer_stats,
        n_messages=sum(rank_info.n_messages for _, rank_info in outcomes),
        bytes_sent=sum(rank_info.bytes_sent for _, rank_info in outcomes),
        items_exchanged_per_iteration=info.items_exchanged_per_iteration,
    )
