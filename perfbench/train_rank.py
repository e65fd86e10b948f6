"""One training process of the benchmark: a single-process sampler, or
one rank of the distributed sampler over a socket world.

Launched by ``bench_train.py`` (never by hand).  It reads the generated
rating data from ``--data``, sets up (connect, partition, bucket plans),
prints ``READY {json}``, then runs whole fixed-length chains from the
same seed until ``--seconds`` have passed (at least :data:`MIN_CHAINS`),
and prints ``RESULT {json}``.  With ``--trace`` the first half of the
chains runs plain and the second half with the layer timers installed.
With ``--setup-only`` it exits after ``READY``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from layers import LayerClock, install_training_layers, plan_flops


#: Whole chains a run always completes, however long they take: the
#: digest check compares them, and a traced run needs a plain and a
#: traced one.
MIN_CHAINS = 2


def _emit(tag: str, payload) -> None:
    print(f"{tag} {json.dumps(payload)}", flush=True)


def _load(path: str):
    from repro.sparse.csr import RatingMatrix
    from repro.sparse.split import RatingSplit

    data = np.load(path)
    n_users, n_movies = (int(v) for v in data["shape"])
    train = RatingMatrix.from_arrays(n_users, n_movies, data["train_users"],
                                     data["train_movies"],
                                     data["train_values"])
    split = RatingSplit(train=train, test_users=data["test_users"],
                        test_movies=data["test_movies"],
                        test_values=data["test_values"])
    return train, split


def _digest(result) -> str:
    hasher = hashlib.sha256()
    hasher.update(np.ascontiguousarray(result.state.user_factors).tobytes())
    hasher.update(np.ascontiguousarray(result.state.movie_factors).tobytes())
    hasher.update(np.asarray(result.rmse_running_mean).tobytes())
    return hasher.hexdigest()


def _sent(world):
    if world is None:
        return 0, 0
    stats = world.stats()["sent"]
    return (sum(peer["bytes"] for peer in stats.values()),
            sum(peer["messages"] for peer in stats.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--data", required=True)
    parser.add_argument("--num-latent", type=int, required=True)
    parser.add_argument("--burn-in", type=int, required=True)
    parser.add_argument("--n-samples", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rank", type=int, default=0)
    parser.add_argument("--world", type=int, default=1)
    parser.add_argument("--rendezvous", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.core.gibbs import GibbsSampler, SamplerOptions
    from repro.core.priors import BPMFConfig
    from repro.distributed.comm_plan import build_comm_plan
    from repro.distributed.partition import partition_ratings
    from repro.distributed.sampler import (
        DistributedGibbsSampler,
        DistributedOptions,
    )
    from repro.mpi.net.world import SocketCommWorld
    from repro.sparse.buckets import cached_bucket_plan

    train, split = _load(args.data)
    config = BPMFConfig(num_latent=args.num_latent, burn_in=args.burn_in,
                        n_samples=args.n_samples)
    setup = {}
    world = partition = options = None
    owned_movies = owned_users = None
    if args.world > 1:
        host, _, port = args.rendezvous.rpartition(":")
        start = time.perf_counter()
        world = SocketCommWorld.connect(args.rank, args.world,
                                        (host, int(port)))
        setup["setup.connect_ms"] = (time.perf_counter() - start) * 1e3
        options = DistributedOptions(n_ranks=args.world)
        start = time.perf_counter()
        partition = partition_ratings(train, args.world,
                                      workload=options.workload,
                                      reorder=options.reorder)
        build_comm_plan(train, partition)
        setup["setup.partition_ms"] = (time.perf_counter() - start) * 1e3
        owned_movies = np.asarray(partition.movies_of(args.rank), np.int64)
        owned_users = np.asarray(partition.users_of(args.rank), np.int64)
    # The engine builds these lazily on its first sweep and caches them
    # for the axis; building them here keeps that one-off cost in set-up.
    start = time.perf_counter()
    movie_plan = cached_bucket_plan(train.by_movie, owned_movies)
    user_plan = cached_bucket_plan(train.by_user, owned_users)
    setup["setup.plan_ms"] = (time.perf_counter() - start) * 1e3
    _emit("READY", {"rank": args.rank, **setup})
    if args.setup_only:
        if world is not None:
            world.close()
        return 0

    def run_chain():
        if world is None:
            sampler = GibbsSampler(config, SamplerOptions())
            return sampler.run(train, split, seed=args.seed), None
        sampler = DistributedGibbsSampler(config, options)
        return sampler.run(train, split, seed=args.seed,
                           partition=partition, comm_world=world)

    clock = LayerClock()
    traced = False
    chains = []
    began = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - began
        done = len(chains) >= MIN_CHAINS and elapsed >= args.seconds
        want_traced = False
        if args.trace:
            # Plain chains for the first half, traced for the second;
            # at least one of each.
            n_traced = sum(1 for chain in chains if chain["traced"])
            n_plain = len(chains) - n_traced
            want_traced = n_plain >= 1 and (elapsed >= args.seconds / 2
                                            or n_traced >= 1)
            done = done and n_traced >= 1
        if world is not None:
            # Rank 0 decides for everyone, so every rank runs the same
            # chains (the decision crosses the wire between chains).
            done, want_traced = world.comm().bcast(
                (done, want_traced) if args.rank == 0 else None, root=0)
        if done:
            break
        if want_traced and not traced:
            install_training_layers(clock, train.by_movie)
            traced = True
        before_layers = clock.snapshot()
        before_bytes, before_msgs = _sent(world)
        start = time.perf_counter()
        result, info = run_chain()
        wall = time.perf_counter() - start
        after_bytes, after_msgs = _sent(world)
        chain = {"wall_s": wall, "traced": traced,
                 "mpi_bytes": after_bytes - before_bytes,
                 "mpi_msgs": after_msgs - before_msgs,
                 "layers_s": {name: value - before_layers.get(name, 0.0)
                              for name, value in clock.snapshot().items()}}
        if info is not None:
            chain["items_per_message"] = info.buffer_stats.items_per_message
        if result is not None:
            factors = (result.state.user_factors, result.state.movie_factors)
            chain["finite"] = bool(all(np.isfinite(block).all()
                                       for block in factors))
            chain["digest"] = _digest(result)
            chain["final_rmse"] = float(result.final_rmse)
        chains.append(chain)
    clock.uninstall()
    if world is not None:
        world.close()
    flops = (plan_flops(movie_plan, args.num_latent)
             + plan_flops(user_plan, args.num_latent))
    _emit("RESULT", {"rank": args.rank, "chains": chains,
                     "sweeps_per_chain": config.total_iterations,
                     "items_per_sweep": train.n_users + train.n_movies,
                     "buckets": movie_plan.n_buckets + user_plan.n_buckets,
                     "flops_per_sweep": flops,
                     "buffer_capacity": (options.buffer_capacity
                                         if options is not None else None)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
