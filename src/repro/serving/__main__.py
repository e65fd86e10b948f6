"""Command-line entry point: ``python -m repro.serving <command>``.

The full train → snapshot → serve → query lifecycle from a terminal:

.. code-block:: bash

    # Train on a synthetic workload, checkpointing every 2 sweeps.
    python -m repro.serving train --snapshot /tmp/model.npz \\
        --burn-in 2 --n-samples 3 --checkpoint-every 2

    # Continue a stopped run (bit-identical to never stopping).
    python -m repro.serving train --snapshot /tmp/model.npz \\
        --resume /tmp/model.npz --burn-in 2 --n-samples 6

    # Inspect / query the snapshot.
    python -m repro.serving info  --snapshot /tmp/model.npz
    python -m repro.serving query --snapshot /tmp/model.npz --user 3 --top 5
    python -m repro.serving query --snapshot /tmp/model.npz --pairs 0:1 2:7

    # Interactive line protocol (predict/top/foldin) on stdin.
    echo "top 3 5" | python -m repro.serving serve --snapshot /tmp/model.npz

    # Framed RPC over TCP: 2 independently-failing replicas.  Fused
    # batched dispatch is the default; --fuse-window 0 disables it.
    # Mutations replicate through the write leader (replica 0); add
    # --wal DIR to make them durable across restarts.
    python -m repro.serving serve --snapshot /tmp/model.npz \\
        --tcp 127.0.0.1:7031 --replicas 2 --shards 2 \\
        --wal /tmp/model-wal --wal-sync-every 1

    # End-to-end self-checks (the CI smoke steps).
    python -m repro.serving smoke
    python -m repro.serving net-smoke
    python -m repro.serving wal-smoke
    python -m repro.serving chaos-smoke --seed 1
    python -m repro.serving obs-smoke --trace-out /tmp/spans.jsonl
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.core.recommend import recommend_for_user
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset
from repro.obs import Tracer
from repro.serving.checkpoint import CheckpointConfig, load_snapshot
from repro.serving.cluster import ClusterError, ShardedScorer, SnapshotWatcher
from repro.serving.net import NetError, ReplicaSet, ServingClient
from repro.serving.net.protocol import execute, format_reply, parse_line
from repro.serving.service import PredictionService
from repro.utils.logging import set_verbosity
from repro.utils.validation import ValidationError

_ENGINES = ("batched", "shared", "reference")


def _add_snapshot_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--snapshot", required=True,
                        help="snapshot .npz path")


def _add_log_level(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="emit library logs on stderr at this level "
                             "(default: logging stays untouched)")


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=200)
    parser.add_argument("--movies", type=int, default=150)
    parser.add_argument("--rank", type=int, default=5)
    parser.add_argument("--density", type=float, default=0.15)
    parser.add_argument("--noise-std", type=float, default=0.3)
    parser.add_argument("--data-seed", type=int, default=0,
                        help="synthetic dataset seed (train and resume runs "
                             "must use the same value)")


def _make_dataset(args):
    return make_low_rank_dataset(SyntheticConfig(
        n_users=args.users, n_movies=args.movies, rank=args.rank,
        density=args.density, noise_std=args.noise_std,
        test_fraction=0.2, seed=args.data_seed))


def _cmd_train(args) -> int:
    data = _make_dataset(args)
    config = BPMFConfig(num_latent=args.num_latent, alpha=args.alpha,
                        burn_in=args.burn_in, n_samples=args.n_samples)
    checkpoint = CheckpointConfig(path=args.snapshot,
                                  every=args.checkpoint_every
                                  or config.total_iterations)
    sampler = GibbsSampler(config, SamplerOptions(
        engine=args.engine, n_workers=args.workers, checkpoint=checkpoint))
    result = sampler.run(data.split.train, data.split, seed=args.seed,
                         resume=args.resume)
    print(f"trained {config.total_iterations} sweeps on "
          f"{data.split.train.n_users}x{data.split.train.n_movies} "
          f"({data.split.train.nnz} ratings, {data.split.n_test} held out)")
    print(f"snapshot: {args.snapshot} (sweep {result.state.iteration})")
    print(f"final posterior-mean RMSE: {result.final_rmse:.4f}")
    return 0


def _cmd_info(args) -> int:
    snapshot = load_snapshot(args.snapshot)
    state = snapshot.state
    print(f"format: repro-snapshot-v1, sweep {state.iteration}")
    print(f"factors: {state.n_users} users x {state.n_movies} movies, "
          f"K={state.num_latent}")
    print(f"posterior-mean samples: {snapshot.mean_count}")
    print(f"resumable: {snapshot.rng_state is not None}")
    print(f"offset: {snapshot.offset}")
    if snapshot.rmse_running_mean:
        print(f"posterior-mean RMSE: {snapshot.rmse_running_mean[-1]:.4f}")
    for key, value in sorted(snapshot.metadata.items()):
        print(f"metadata {key}: {value}")
    return 0


def _make_service(args) -> PredictionService:
    return PredictionService(args.snapshot, mode=args.mode)


def _cmd_query(args) -> int:
    service = _make_service(args)
    if args.pairs:
        users, items = [], []
        for pair in args.pairs:
            user, _, item = pair.partition(":")
            users.append(int(user))
            items.append(int(item))
        scores = service.predict_batch(np.array(users), np.array(items))
        for user, item, score in zip(users, items, scores):
            print(f"predict {user} {item} -> {score:.4f}")
    if args.user is not None:
        recommendation = service.top_n(args.user, n=args.top)
        for rank, (item, score) in enumerate(recommendation.as_pairs(), 1):
            print(f"top {args.user} #{rank}: item {item} score {score:.4f}")
    if not args.pairs and args.user is None:
        print("nothing to query: pass --user and/or --pairs", file=sys.stderr)
        return 2
    return 0


def _graceful_sigterm():
    """Route SIGTERM into the KeyboardInterrupt path; returns a restorer.

    Serving loops already tear down cleanly on Ctrl-C (worker pools
    stopped, shared-memory segments unlinked); folding SIGTERM into the
    same path gives ``kill <pid>`` the identical graceful drain.
    """
    def raise_interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, raise_interrupt)
    return lambda: signal.signal(signal.SIGTERM, previous)


def _serve_repl(service, watcher, backend: str, mode: str,
                owns_service: bool) -> int:
    """The stdin line protocol, parsed and formatted by the shared codec.

    Every command line goes through :func:`repro.serving.net.protocol.
    parse_line` → :func:`execute` → :func:`format_reply` — the same
    parser and executor the TCP transport uses; a golden-transcript test
    pins the output bit-identical to the historical ad-hoc loop.
    """
    restore_sigterm = _graceful_sigterm()
    print(f"serving {service.n_users} users x {service.n_items} items "
          f"({backend}, mode={mode}); commands: predict, top, foldin, "
          f"rate, stats, quit", flush=True)
    try:
        for line in sys.stdin:
            try:
                request = parse_line(line)
                if request is None:
                    continue
                if request.kind == "quit":
                    break
                print(format_reply(request, execute(service, request)),
                      flush=True)
            except (ValidationError, IndexError, ValueError,
                    KeyError, ClusterError) as error:
                # Parse-time failures (execute() turns its own failures
                # into error frames, ClusterError included — a crashed
                # worker must not kill the session; the gateway respawns
                # its pool on the next command).
                print(f"error: {error}", flush=True)
    except KeyboardInterrupt:
        pass  # SIGTERM / Ctrl-C: drain through the shared teardown below
    finally:
        restore_sigterm()
        if watcher is not None:
            watcher.stop()
        if owns_service:
            service.close()
    return 0


def _parse_hostport(value: str):
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise ValidationError(
            f"--tcp expects HOST:PORT (e.g. 127.0.0.1:7031), got {value!r}")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]  # bracketed IPv6 literal, e.g. [::1]:7031
    elif ":" in host:
        raise ValidationError(
            f"--tcp expects HOST:PORT (bracket IPv6 hosts as "
            f"[ADDR]:PORT), got {value!r}")
    if int(port) > 65535:
        raise ValidationError(
            f"--tcp port must be 0-65535, got {port}")
    return host or "127.0.0.1", int(port)


def _fuse_window_ms(value):
    """CLI fuse-window semantics: ``0`` (or negative) disables fusion."""
    if value is None or value <= 0:
        return None
    return float(value)


def _serve_tcp(args, host: str, port: int) -> int:
    """The framed RPC transport: N replicas, fusion (default) and watch."""

    def make_service(index: int):
        if args.shards:
            return ShardedScorer(args.snapshot, n_shards=args.shards,
                                 mode=args.mode, n_workers=args.workers)
        return PredictionService(args.snapshot, mode=args.mode)

    make_watcher = None
    if args.watch:
        make_watcher = lambda service: SnapshotWatcher(  # noqa: E731
            service, args.snapshot, interval=args.watch_interval)

    stop_event = threading.Event()

    def request_stop(signum, frame):
        stop_event.set()

    previous = {sig: signal.signal(sig, request_stop)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    fuse_window = _fuse_window_ms(args.fuse_window)
    tracer = Tracer(sink_dir=args.trace_dir) if args.trace_dir else None
    replicas = ReplicaSet(
        make_service, n_replicas=args.replicas, host=host,
        ports=([port + index for index in range(args.replicas)]
               if port else None),
        make_watcher=make_watcher, fuse_window_ms=fuse_window,
        fuse_max_batch=args.fuse_max_batch,
        max_in_flight=args.max_in_flight,
        wal_dir=args.wal, wal_sync_every=args.wal_sync_every,
        ship_cooldown=args.cooldown, ship_backoff_max=args.backoff_max,
        tracer=tracer)
    try:
        replicas.start()
        service = replicas.replicas[0].service
        backend = (f"{args.shards}-shard gateway" if args.shards
                   else "single-process")
        fused = (f"fused dispatch, fallback window {fuse_window}ms"
                 if fuse_window is not None else "fusion off")
        durable = (f"wal at {args.wal} (sync every {args.wal_sync_every})"
                   if args.wal else "wal in memory")
        traced = (f", traced to {args.trace_dir}" if tracer is not None
                  else "")
        addresses = ", ".join(f"{h}:{p}" for h, p in replicas.addresses)
        print(f"serving {service.n_users} users x {service.n_items} items "
              f"over tcp on {addresses} ({args.replicas} replicas, "
              f"{backend} each, mode={args.mode}, {fused}, "
              f"leader-replicated mutations, {durable}{traced})", flush=True)
        stop_event.wait()
        print("draining: in-flight requests finish, pools close",
              flush=True)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        replicas.stop()
        if tracer is not None:
            tracer.close()
    return 0


def _cmd_serve(args) -> int:
    """Serve queries on stdin (line protocol) or TCP (framed RPC).

    With ``--shards N`` the queries run on the sharded worker-pool gateway
    (:class:`~repro.serving.cluster.ShardedScorer`); ``--watch`` addition-
    ally hot-swaps new versions of the snapshot file as a concurrently
    running trainer overwrites it.  ``rate u i:v ...`` applies the
    incremental fold-in update to a previously folded-in user.  With
    ``--tcp HOST:PORT`` the same command set is served over the framed
    RPC protocol instead, with ``--replicas N`` independent gateway
    replicas (ports PORT..PORT+N-1); cross-user query fusion is on by
    default there (``--fuse-window 0`` disables it).
    """
    if args.watch and not args.shards:
        print("--watch requires --shards N", file=sys.stderr)
        return 2
    if args.tcp:
        try:
            host, port = _parse_hostport(args.tcp)
            if args.replicas < 1:
                raise ValidationError(
                    f"--replicas must be >= 1, got {args.replicas}")
            if port and port + args.replicas - 1 > 65535:
                raise ValidationError(
                    f"--replicas {args.replicas} from port {port} would "
                    "pass port 65535")
        except ValidationError as error:
            print(error, file=sys.stderr)
            return 2
        return _serve_tcp(args, host, port)
    watcher = None
    if args.shards:
        service = ShardedScorer(args.snapshot, n_shards=args.shards,
                                mode=args.mode, n_workers=args.workers)
        if args.watch:
            watcher = SnapshotWatcher(service, args.snapshot,
                                      interval=args.watch_interval).start()
        backend = f"{args.shards}-shard gateway"
    else:
        service = _make_service(args)
        backend = "single-process"
    return _serve_repl(service, watcher, backend, args.mode,
                       owns_service=bool(args.shards))


def _cmd_smoke(args) -> int:
    """End-to-end self check: train, snapshot, resume, serve, query, fold in."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "smoke.npz"
        data = make_low_rank_dataset(SyntheticConfig(
            n_users=60, n_movies=40, rank=3, density=0.3, noise_std=0.3,
            test_fraction=0.2, seed=7))
        config = BPMFConfig(num_latent=4, alpha=4.0, burn_in=2, n_samples=3)
        options = SamplerOptions(checkpoint=CheckpointConfig(path=path, every=2))
        result = GibbsSampler(config, options).run(
            data.split.train, data.split, seed=0)
        assert np.isfinite(result.final_rmse), "training RMSE is not finite"

        # Resume from the snapshot for 2 extra samples: still finite.
        longer = BPMFConfig(num_latent=4, alpha=4.0, burn_in=2, n_samples=5)
        resumed = GibbsSampler(longer, SamplerOptions()).run(
            data.split.train, data.split, resume=path)
        assert resumed.state.iteration == longer.total_iterations

        service = PredictionService(path, train=data.split.train)
        predictions = service.predict_batch(data.split.test_users,
                                            data.split.test_movies)
        rmse = float(np.sqrt(np.mean((predictions - data.split.test_values) ** 2)))
        assert np.isfinite(rmse), "serving RMSE is not finite"
        top = service.top_n(0, n=5)
        assert len(top) == 5 and np.isfinite(top.scores).all()

        cold = service.fold_in(np.array([0, 1, 2]), np.array([4.0, 3.0, 5.0]))
        cold_top = service.top_n(cold, n=5)
        assert np.isfinite(cold_top.scores).all()

        # The service's ranking must match the in-memory recommendation path.
        reference = recommend_for_user(service.state(), 0, n=5,
                                       exclude=data.split.train)
        assert reference.items.tolist() == top.items.tolist(), \
            "service top-N disagrees with recommend_for_user"

        print(f"SMOKE OK: serving rmse={rmse:.4f}, "
              f"resumed to sweep {resumed.state.iteration}, "
              f"fold-in user {cold} served")
    return 0


def _cmd_cluster_smoke(args) -> int:
    """CI smoke: 2-shard gateway, one hot snapshot swap, bit-parity check.

    Writes the observed query latencies to ``--latency-out`` as JSON so CI
    can archive them next to the bench artifacts.
    """
    from repro.utils.environment import machine_environment

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cluster.npz"
        data = make_low_rank_dataset(SyntheticConfig(
            n_users=60, n_movies=45, rank=3, density=0.3, noise_std=0.3,
            test_fraction=0.2, seed=7))
        train = data.split.train
        config = BPMFConfig(num_latent=4, alpha=4.0, burn_in=2, n_samples=3)
        GibbsSampler(config, SamplerOptions(
            checkpoint=CheckpointConfig(path=path, every=2))).run(
            train, data.split, seed=0)

        users = list(range(0, train.n_users, 3))
        latencies: list[float] = []
        parity_queries = 0

        def storm(scorer, reference) -> None:
            nonlocal parity_queries
            for user in users:
                begin = time.perf_counter()
                served = scorer.top_n(user, n=5)
                latencies.append((time.perf_counter() - begin) * 1e3)
                expected = reference.top_n(user, n=5)
                assert served.items.tolist() == expected.items.tolist() \
                    and served.scores.tobytes() == expected.scores.tobytes(), \
                    f"sharded top-N diverged for user {user}"
                parity_queries += 1

        with ShardedScorer(path, n_shards=args.shards, train=train) as scorer:
            watcher = SnapshotWatcher(scorer, path)
            storm(scorer, PredictionService(path, train=train))

            # A training run extends the chain and overwrites the snapshot;
            # the watcher must validate and hot-swap it.
            longer = BPMFConfig(num_latent=4, alpha=4.0, burn_in=2,
                                n_samples=6)
            GibbsSampler(longer, SamplerOptions(
                checkpoint=CheckpointConfig(path=path, every=3))).run(
                train, data.split, resume=path)
            assert watcher.check_once(), "watcher missed the new snapshot"
            assert scorer.n_swaps == 1
            storm(scorer, PredictionService(path, train=train))

            cold = scorer.fold_in(np.array([0, 1, 2]),
                                  np.array([4.0, 3.0, 5.0]))
            scorer.add_ratings(cold, np.array([5]), np.array([2.5]))
            assert np.isfinite(scorer.top_n(cold, n=5).scores).all()
            stats = scorer.stats()

        ladder = np.asarray(latencies)
        payload = {
            "benchmark": "serving-cluster-smoke",
            "environment": machine_environment(),
            "shards": args.shards,
            "parity_queries": parity_queries,
            "swaps": stats["n_swaps"],
            "latency_ms": {
                "p50": float(np.percentile(ladder, 50)),
                "p95": float(np.percentile(ladder, 95)),
                "mean": float(ladder.mean()),
            },
        }
        if args.latency_out:
            with open(args.latency_out, "w", encoding="utf8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        print(f"CLUSTER SMOKE OK: {parity_queries} bit-identical queries "
              f"across {args.shards} shards, {stats['n_swaps']} hot swap, "
              f"p95 latency {payload['latency_ms']['p95']:.2f} ms")
    return 0


def _cmd_net_smoke(args) -> int:
    """CI smoke for the network frontend: fused replicas + failover.

    Starts a 2-replica fused TCP server on a trained snapshot, storms it
    with concurrent clients while asserting every fused ``top_n`` reply
    is bit-identical to the single-process reference, exercises
    ``predict``/``foldin``/``rate``/``stats``/``health``, then kills one
    replica mid-storm and checks reads keep succeeding.  Observed
    latencies go to ``--latency-out`` as JSON for the CI artifact.

    ``--encoding {json,binary}`` pins the wire encoding the clients
    negotiate, and ``--pipeline`` adds a pipelined ``top_n_pipelined``
    parity pass, so CI covers both encodings and the windowed client.
    """
    from repro.utils.environment import machine_environment

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.npz"
        data = make_low_rank_dataset(SyntheticConfig(
            n_users=60, n_movies=45, rank=3, density=0.3, noise_std=0.3,
            test_fraction=0.2, seed=7))
        config = BPMFConfig(num_latent=4, alpha=4.0, burn_in=2, n_samples=3)
        GibbsSampler(config, SamplerOptions(
            checkpoint=CheckpointConfig(path=path, every=2))).run(
            data.split.train, data.split, seed=0)
        reference = PredictionService(path)
        users = list(range(0, reference.n_users, 2))
        latencies: list[float] = []
        failures: list[BaseException] = []
        parity_queries = 0
        lock = threading.Lock()

        fuse_window = _fuse_window_ms(args.fuse_window)
        binary = args.encoding == "binary"
        replicas = ReplicaSet(lambda index: PredictionService(path),
                              n_replicas=args.replicas,
                              fuse_window_ms=fuse_window)
        with replicas:
            def storm() -> None:
                # Failures are recorded, never raised: an exception (or a
                # bare assert) inside a worker thread would kill only that
                # thread and let the smoke report success anyway.
                nonlocal parity_queries
                client = ServingClient(replicas.addresses,
                                       cooldown=args.cooldown,
                                       backoff_max=args.backoff_max,
                                       binary=binary)
                with client:
                    for user in users:
                        begin = time.perf_counter()
                        try:
                            served = client.top_n(user, n=5)
                        except Exception as error:  # noqa: BLE001
                            with lock:
                                failures.append(error)
                            continue
                        elapsed = (time.perf_counter() - begin) * 1e3
                        expected = reference.top_n(user, n=5)
                        with lock:
                            latencies.append(elapsed)
                            if served.items.tolist() \
                                    != expected.items.tolist() \
                                    or served.scores.tobytes() \
                                    != expected.scores.tobytes():
                                failures.append(AssertionError(
                                    f"fused top-N diverged for user {user}"))
                            else:
                                parity_queries += 1

            threads = [threading.Thread(target=storm) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads), \
                "storm threads hung"
            assert not failures, failures[:3]
            assert parity_queries == len(threads) * len(users)

            if args.pipeline:
                # One connection, many in-flight frames: the windowed
                # client must match the reference bit for bit too.
                piped = ServingClient(replicas.addresses, binary=binary)
                with piped:
                    served_all = piped.top_n_pipelined(users, n=5)
                for user, served in zip(users, served_all):
                    expected = reference.top_n(user, n=5)
                    assert served.items.tolist() == \
                        expected.items.tolist() \
                        and served.scores.tobytes() == \
                        expected.scores.tobytes(), \
                        f"pipelined top-N diverged for user {user}"
                parity_queries += len(users)

            # Mutations replicate through the write leader: fold in via
            # any replica, then read the new user back from *every*
            # replica (read-your-writes across the fleet).
            writer = ServingClient(replicas.addresses, binary=binary)
            with writer:
                cold = writer.fold_in(np.array([0, 1, 2]),
                                      np.array([4.0, 3.0, 5.0]))
                assert writer.rate(cold, np.array([5]),
                                   np.array([2.5])) == cold
                assert writer.last_seqno == 2
            digests = set()
            for address in replicas.addresses:
                pinned = ServingClient([address], binary=binary)
                with pinned:
                    assert np.isfinite(
                        pinned.top_n(cold, n=5).scores).all()
                    health = pinned.health(digest=True)
                    assert health["status"] == "ok"
                    assert health["fusion"]["fusion_requests"] > 0
                    assert health["wal"]["applied_seqno"] == 2
                    digests.add(health["digest"])
                    assert pinned.stats()["n_folded_in"] == 1
            assert len(digests) == 1, "replicas diverged after mutations"

            # Kill replica 0 mid-storm: reads must keep succeeding.
            survivor_ref = replicas.replicas[1].service
            client = ServingClient(replicas.addresses,
                                   cooldown=args.cooldown,
                                   backoff_max=args.backoff_max,
                                   binary=binary)
            with client:
                client.top_n(0, n=5)
                replicas.kill(0)
                for user in users:
                    served = client.top_n(user, n=5)
                    expected = survivor_ref.top_n(user, n=5)
                    assert served.items.tolist() == expected.items.tolist()
                failovers = client.n_failovers
            fusion_stats = replicas.replicas[1].server.fuser.stats()

        ladder = np.asarray(latencies)
        payload = {
            "benchmark": "net-serving-smoke",
            "environment": machine_environment(),
            "replicas": args.replicas,
            "fuse_window_ms": fuse_window,
            "encoding": args.encoding,
            "pipelined": bool(args.pipeline),
            "parity_queries": parity_queries,
            "failovers": failovers,
            "fusion": fusion_stats,
            "latency_ms": {
                "p50": float(np.percentile(ladder, 50)),
                "p95": float(np.percentile(ladder, 95)),
                "mean": float(ladder.mean()),
            },
        }
        if args.latency_out:
            with open(args.latency_out, "w", encoding="utf8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        print(f"NET SMOKE OK: {parity_queries} bit-identical {args.encoding} "
              f"queries across {args.replicas} replicas "
              f"({fusion_stats['fusion_windows']} fused windows), "
              f"failover survived with {failovers} retries, "
              f"p95 latency {payload['latency_ms']['p95']:.2f} ms")
    return 0


def _cmd_wal_smoke(args) -> int:
    """CI smoke for the durable mutation log: storm → kill → converge.

    Starts a replica set on a durable WAL directory, storms it with
    concurrent writers (fold-in + ratings) and readers, kills the write
    leader mid-storm, restarts it, and then checks the exactly-once
    contract end to end:

    * reads never failed (readers rode failover through the kill);
    * writes succeed again after the restart (the leader recovered its
      log and write-dedup table from disk);
    * re-delivering an already-applied record to a follower is a counted
      no-op (``duplicates_skipped`` increments, applied seqno does not);
    * every replica reports the same state digest *and* the same digest
      as a fresh service replaying the WAL from scratch — so 100 % of
      acked writes survived the crash, bit for bit;
    * mutation latencies go to ``--latency-out`` as the CI artifact.
    """
    from repro.serving.wal import MutationReplayer, WriteAheadLog
    from repro.utils.environment import machine_environment

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wal.npz"
        wal_dir = Path(tmp) / "mutation-log"
        data = make_low_rank_dataset(SyntheticConfig(
            n_users=60, n_movies=45, rank=3, density=0.3, noise_std=0.3,
            test_fraction=0.2, seed=11))
        config = BPMFConfig(num_latent=4, alpha=4.0, burn_in=2, n_samples=3)
        GibbsSampler(config, SamplerOptions(
            checkpoint=CheckpointConfig(path=path, every=2))).run(
            data.split.train, data.split, seed=0)
        reference = PredictionService(path)
        read_users = list(range(0, reference.n_train_users, 2))

        n_writers = 2
        writes_each = max(1, args.writes // n_writers)
        latencies: list[float] = []
        acked_seqnos: list[int] = []
        write_errors = 0
        read_failures: list[BaseException] = []
        n_reads = 0
        lock = threading.Lock()
        stop_reads = threading.Event()

        replicas = ReplicaSet(lambda index: PredictionService(path),
                              n_replicas=args.replicas,
                              wal_dir=str(wal_dir),
                              wal_sync_every=args.wal_sync_every)
        with replicas:
            def write_storm(worker: int) -> None:
                # Writes hitting the leader-down window fail loudly
                # (never silently dropped); a real client retries — each
                # attempt is its own exactly-once mutation — so the storm
                # rides through the outage instead of draining during it.
                nonlocal write_errors
                rng = np.random.default_rng(worker)
                deadline = time.monotonic() + 90.0
                client = ServingClient(replicas.addresses,
                                        cooldown=args.cooldown,
                                        backoff_max=args.backoff_max)
                with client:
                    user = client.fold_in(np.array([0, 1, 2]),
                                          np.array([4.0, 3.0, 5.0]))
                    for _ in range(writes_each):
                        item = int(rng.integers(0, reference.n_items))
                        value = float(rng.integers(1, 6))
                        begin = time.perf_counter()
                        while True:
                            try:
                                client.rate(user, np.array([item]),
                                            np.array([value]))
                                break
                            except NetError:
                                with lock:
                                    write_errors += 1
                                if time.monotonic() > deadline:
                                    return
                                time.sleep(0.05)
                        elapsed = (time.perf_counter() - begin) * 1e3
                        with lock:
                            latencies.append(elapsed)
                            acked_seqnos.append(client.last_seqno)

            def read_storm() -> None:
                nonlocal n_reads
                client = ServingClient(replicas.addresses,
                                        cooldown=args.cooldown,
                                        backoff_max=args.backoff_max)
                with client:
                    while not stop_reads.is_set():
                        user = read_users[n_reads % len(read_users)]
                        try:
                            client.top_n(user, n=5)
                        except Exception as error:  # noqa: BLE001
                            with lock:
                                read_failures.append(error)
                        with lock:
                            n_reads += 1

            writers = [threading.Thread(target=write_storm, args=(i,))
                       for i in range(n_writers)]
            readers = [threading.Thread(target=read_storm)
                       for _ in range(2)]
            for thread in writers + readers:
                thread.start()

            # Kill the write leader once the storm is rolling, leave it
            # down long enough for writers to hit the outage, restart.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                with lock:
                    if len(acked_seqnos) >= 20:
                        break
                time.sleep(0.01)
            with lock:
                acked_before_kill = len(acked_seqnos)
            assert acked_before_kill >= 20, "storm never got going"
            replicas.kill(0)
            time.sleep(0.5)
            replicas.restart(0)

            for thread in writers:
                thread.join(timeout=120.0)
            stop_reads.set()
            for thread in readers:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive()
                           for thread in writers + readers), "storm hung"
            assert not read_failures, read_failures[:3]

            # Writes work again: the restarted leader recovered its log.
            client = ServingClient(replicas.addresses)
            with client:
                user = client.fold_in(np.array([3, 4]),
                                      np.array([2.0, 5.0]))
                client.rate(user, np.array([0]), np.array([1.0]))
                final_seqno = client.last_seqno
            assert final_seqno >= max(acked_seqnos), \
                "post-restart write did not advance the log"

            # Re-deliver an already-applied record to a follower: the
            # replayer's high-water mark makes it a counted no-op.
            leader = replicas.replicas[0].server.wal
            follower = replicas.replicas[1].server
            record = leader.log.read_range(1, 1)[0]
            before = follower.wal.stats()
            follower.call_serialized(
                follower.wal.handle_wal_append,
                {"records": [{"seqno": record.seqno,
                              "payload": dict(record.payload)}],
                 "leader_hwm": leader.log.high_seqno,
                 "leader_instance": leader.instance})
            after = follower.wal.stats()
            assert after["duplicates_skipped"] \
                == before["duplicates_skipped"] + 1
            assert after["applied_seqno"] == before["applied_seqno"]

            # Fleet convergence: every replica, same digest, same seqno.
            digests = set()
            applied = {}
            for address in replicas.addresses:
                pinned = ServingClient([address])
                with pinned:
                    health = pinned.health(digest=True)
                    applied[address] = health["wal"]["applied_seqno"]
                    digests.add(health["digest"])
            assert set(applied.values()) == {final_seqno}, \
                f"applied seqnos {applied} never reached acked {final_seqno}"
            assert len(digests) == 1, "replicas diverged after failover"
            fleet_digest = digests.pop()

        # Ground truth: a fresh service replaying the log from scratch
        # must land on the very same bytes — every acked write survived.
        replayed = PredictionService(path)
        log = WriteAheadLog(wal_dir)
        replayer = MutationReplayer(replayed)
        replayer.apply_all(log.records())
        log.close()
        assert replayer.applied_seqno == final_seqno
        assert replayer.applied_seqno >= max(acked_seqnos)
        assert str(replayed.state_digest()) == fleet_digest, \
            "fleet state diverged from a clean WAL replay"

        ladder = np.asarray(latencies)
        payload = {
            "benchmark": "wal-serving-smoke",
            "environment": machine_environment(),
            "replicas": args.replicas,
            "wal_sync_every": args.wal_sync_every,
            "acked_writes": len(acked_seqnos),
            "acked_before_kill": acked_before_kill,
            "write_errors_during_outage": write_errors,
            "reads": n_reads,
            "final_seqno": final_seqno,
            "mutation_latency_ms": {
                "p50": float(np.percentile(ladder, 50)),
                "p95": float(np.percentile(ladder, 95)),
                "mean": float(ladder.mean()),
            },
        }
        if args.latency_out:
            with open(args.latency_out, "w", encoding="utf8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        print(f"WAL SMOKE OK: {len(acked_seqnos)} acked writes "
              f"({write_errors} refused during the outage), "
              f"{n_reads} reads with 0 failures through a leader kill, "
              f"fleet digest == replay digest at seqno {final_seqno}, "
              f"mutation p95 "
              f"{payload['mutation_latency_ms']['p95']:.2f} ms")
    return 0


def _cmd_chaos_smoke(args) -> int:
    """CI chaos drill: a seeded fault schedule against a live fleet.

    Generates a deterministic :class:`FaultPlan` from ``--seed``, starts
    a durable replica fleet with the WAL fault sites armed, and runs a
    read/write storm through chaos clients whose sockets execute the
    scheduled network faults, while a :class:`FleetConductor` applies
    the plan's kill/pause timeline.  When the schedule ends, four
    invariants are checked:

    * **no acked write lost** — every acked seqno is present in a clean
      replay of the log, and the fleet digest equals the replay digest
      bit for bit;
    * **reads fail soft** — every read either succeeded bit-identically
      to an undisturbed reference service or failed with a *retryable*
      error (failover exhaustion or ``deadline_exceeded``) within its
      deadline budget;
    * **nothing hangs** — every storm thread and the conductor join;
    * **the fleet converges** — after the schedule, all replicas report
      one digest and zero replication lag.

    The full schedule, the triggered fault log and the invariant results
    go to ``--report-out`` as the CI artifact; re-running the same seed
    regenerates the byte-identical schedule.
    """
    from repro.serving.chaos import FaultInjector, FaultPlan, FleetConductor
    from repro.serving.net import DeadlineError
    from repro.serving.wal import MutationReplayer, WriteAheadLog
    from repro.utils.environment import machine_environment

    plan = FaultPlan.generate(
        seed=args.seed, n_events=args.faults, horizon=args.horizon,
        n_replicas=args.replicas, n_fleet_events=args.fleet_events,
        fleet_span=args.fleet_span)
    injector = FaultInjector(plan)
    tracer = Tracer(capacity=65536) if args.trace_out else None
    deadline_s = args.deadline_ms / 1000.0

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chaos.npz"
        wal_dir = Path(tmp) / "mutation-log"
        data = make_low_rank_dataset(SyntheticConfig(
            n_users=60, n_movies=45, rank=3, density=0.3, noise_std=0.3,
            test_fraction=0.2, seed=13))
        config = BPMFConfig(num_latent=4, alpha=4.0, burn_in=2, n_samples=3)
        GibbsSampler(config, SamplerOptions(
            checkpoint=CheckpointConfig(path=path, every=2))).run(
            data.split.train, data.split, seed=0)
        reference = PredictionService(path)
        read_users = list(range(0, reference.n_train_users, 2))

        n_writers = 2
        writes_each = max(1, args.writes // n_writers)
        violations: list[str] = []
        acked_seqnos: list[int] = []
        write_retries = 0
        n_reads = 0
        n_read_retryable = 0
        n_read_deadline = 0
        lock = threading.Lock()
        stop_reads = threading.Event()

        def chaos_client() -> ServingClient:
            return ServingClient(replicas.addresses, timeout=2.0,
                                 cooldown=args.cooldown,
                                 backoff_max=args.backoff_max,
                                 backoff_seed=args.seed,
                                 fault_injector=injector,
                                 tracer=tracer)

        replicas = ReplicaSet(lambda index: PredictionService(path),
                              n_replicas=args.replicas,
                              wal_dir=str(wal_dir), wal_sync_every=1,
                              ship_cooldown=args.cooldown,
                              ship_backoff_max=args.backoff_max,
                              ship_backoff_seed=args.seed,
                              fault_injector=injector,
                              tracer=tracer)
        with replicas:
            def write_storm(worker: int) -> None:
                # Every mutation retries until acked (each attempt is
                # exactly-once via its write_id); a *non-retryable*
                # failure is an invariant violation — injected faults
                # must surface as retryable errors, never as silent
                # corruption or misclassified domain errors.
                nonlocal write_retries
                rng = np.random.default_rng(worker)
                give_up = time.monotonic() + 120.0
                with chaos_client() as client:
                    def commit(mutate):
                        nonlocal write_retries
                        while True:
                            try:
                                return mutate()
                            except NetError as error:
                                if not getattr(error, "retryable", False):
                                    with lock:
                                        violations.append(
                                            "non-retryable write failure: "
                                            f"{error!r}")
                                    return None
                                with lock:
                                    write_retries += 1
                                if time.monotonic() > give_up:
                                    with lock:
                                        violations.append(
                                            "write storm never finished")
                                    return None
                                time.sleep(0.05)

                    user = commit(lambda: client.fold_in(
                        np.array([0, 1, 2]), np.array([4.0, 3.0, 5.0])))
                    if user is None:
                        return
                    for _ in range(writes_each):
                        item = int(rng.integers(0, reference.n_items))
                        value = float(rng.integers(1, 6))
                        if commit(lambda: client.rate(
                                user, np.array([item]),
                                np.array([value]))) is None:
                            return
                        with lock:
                            acked_seqnos.append(client.last_seqno)

            def read_storm() -> None:
                # Each read carries a deadline; it must either succeed
                # bit-identically to the reference or fail retryably
                # within (roughly) its budget.  The grace term covers
                # the last socket timeout an injected drop waits out.
                nonlocal n_reads, n_read_retryable, n_read_deadline
                with chaos_client() as client:
                    while not stop_reads.is_set():
                        with lock:
                            user = read_users[n_reads % len(read_users)]
                            n_reads += 1
                        begin = time.monotonic()
                        try:
                            served = client.top_n(
                                user, n=5, deadline_ms=args.deadline_ms)
                        except DeadlineError:
                            with lock:
                                n_read_deadline += 1
                            continue
                        except NetError as error:
                            elapsed = time.monotonic() - begin
                            with lock:
                                if not getattr(error, "retryable", False):
                                    violations.append(
                                        "non-retryable read failure: "
                                        f"{error!r}")
                                elif elapsed > deadline_s + 2.5:
                                    violations.append(
                                        f"read failed after {elapsed:.2f}s "
                                        f"(deadline {deadline_s:.2f}s): "
                                        f"{error!r}")
                                else:
                                    n_read_retryable += 1
                            continue
                        expected = reference.top_n(user, n=5)
                        if served.items.tolist() != expected.items.tolist() \
                                or served.scores.tobytes() \
                                != expected.scores.tobytes():
                            with lock:
                                violations.append(
                                    f"top-N diverged for user {user} "
                                    "under chaos")

            writers = [threading.Thread(target=write_storm, args=(i,))
                       for i in range(n_writers)]
            readers = [threading.Thread(target=read_storm)
                       for _ in range(2)]
            for thread in writers + readers:
                thread.start()

            # Unleash the fleet schedule once the storm is rolling.
            start_deadline = time.monotonic() + 30.0
            while time.monotonic() < start_deadline:
                with lock:
                    if len(acked_seqnos) >= 5:
                        break
                time.sleep(0.01)
            conductor = FleetConductor(replicas, plan.fleet)
            conductor.start()

            for thread in writers:
                thread.join(timeout=150.0)
            fleet_log = conductor.finish(timeout=90.0)
            stop_reads.set()
            for thread in readers:
                thread.join(timeout=30.0)
            hung = any(thread.is_alive() for thread in writers + readers)
            if hung:
                violations.append("storm threads hung")

            # Convergence: probe writes re-open shipping to any follower
            # still in backoff from the schedule; every replica must
            # reach the probe's seqno with one fleet-wide digest.
            final_seqno = None
            fleet_digest = None
            converged = False
            with ServingClient(replicas.addresses,
                               cooldown=args.cooldown,
                               backoff_max=args.backoff_max) as probe:
                converge_deadline = time.monotonic() + 30.0
                probe_user = None
                while probe_user is None \
                        and time.monotonic() < converge_deadline:
                    try:
                        probe_user = probe.fold_in(np.array([3, 4]),
                                                   np.array([2.0, 5.0]))
                    except NetError:  # a residual scheduled fault fired
                        time.sleep(0.25)
                while probe_user is not None \
                        and time.monotonic() < converge_deadline:
                    try:
                        probe.rate(probe_user, np.array([0]),
                                   np.array([1.0]))
                    except NetError:  # a residual scheduled fault fired
                        time.sleep(0.25)
                        continue
                    final_seqno = probe.last_seqno
                    digests = set()
                    applied = set()
                    for address in replicas.addresses:
                        with ServingClient([address]) as pinned:
                            health = pinned.health(digest=True)
                            applied.add(health["wal"]["applied_seqno"])
                            digests.add(health["digest"])
                    if applied == {final_seqno} and len(digests) == 1:
                        fleet_digest = digests.pop()
                        converged = True
                        break
                    time.sleep(0.25)
            if not converged:
                violations.append("fleet did not converge after the "
                                  "schedule ended")

            # Replication lag must read zero once converged.
            lag_ok = True
            for stats in replicas.wal_stats():
                if stats is None:
                    continue
                lag = stats.get("max_follower_lag" if stats["role"]
                                == "leader" else "lag", 0)
                if lag != 0:
                    lag_ok = False
                    violations.append(
                        f"{stats['role']} reports lag {lag} "
                        "after convergence")

        # Ground truth: a clean replay of the log must land on the very
        # same bytes the fleet serves — every acked write survived the
        # schedule (including any injected WAL faults).
        replay_ok = False
        if converged and acked_seqnos:
            replayed = PredictionService(path)
            log = WriteAheadLog(wal_dir)
            replayer = MutationReplayer(replayed)
            replayer.apply_all(log.records())
            log.close()
            if replayer.applied_seqno != final_seqno:
                violations.append(
                    f"replay stopped at {replayer.applied_seqno}, fleet "
                    f"acked {final_seqno}")
            elif replayer.applied_seqno < max(acked_seqnos):
                violations.append("an acked write is missing from the log")
            elif str(replayed.state_digest()) != fleet_digest:
                violations.append("fleet digest != clean replay digest")
            else:
                replay_ok = True

        trace_summary = None
        if tracer is not None:
            # Every span that a scheduled fault landed inside carries the
            # fired event as a ``fault`` annotation (see FaultInjector).
            spans = tracer.spans()
            annotated = sum(1 for span in spans if "fault" in span["attrs"])
            trace_summary = {"spans": len(spans),
                             "fault_annotated": annotated,
                             "tracer": tracer.stats()}
            with open(args.trace_out, "w", encoding="utf8") as handle:
                for span in spans:
                    handle.write(json.dumps(span, sort_keys=True,
                                            default=str) + "\n")

        report = {
            "benchmark": "chaos-smoke",
            "environment": machine_environment(),
            "seed": args.seed,
            "replicas": args.replicas,
            "deadline_ms": args.deadline_ms,
            "plan": plan.to_json(),
            "plan_digest": plan.digest(),
            "triggered": list(injector.log),
            "site_calls": injector.counts(),
            "fleet_log": fleet_log,
            "acked_writes": len(acked_seqnos),
            "write_retries": write_retries,
            "reads": n_reads,
            "read_retryable_failures": n_read_retryable,
            "read_deadline_failures": n_read_deadline,
            "invariants": {
                "no_acked_write_lost": replay_ok,
                "reads_fail_soft": not any(
                    "read" in v or "diverged" in v for v in violations),
                "no_hangs": not hung,
                "fleet_converged": converged and lag_ok,
            },
            "violations": violations,
        }
        if trace_summary is not None:
            report["trace"] = trace_summary
        if args.report_out:
            with open(args.report_out, "w", encoding="utf8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        if violations:
            print(f"CHAOS SMOKE FAILED (seed {args.seed}): "
                  + "; ".join(violations[:5]), file=sys.stderr)
            return 1
        print(f"CHAOS SMOKE OK: seed {args.seed}, "
              f"{len(injector.log)} faults fired "
              f"({len(plan.events)} scheduled, "
              f"{len(fleet_log)} fleet actions), "
              f"{len(acked_seqnos)} acked writes all durable "
              f"({write_retries} retries), {n_reads} reads "
              f"({n_read_retryable} failovers exhausted, "
              f"{n_read_deadline} deadline-shed, 0 violations), "
              f"fleet converged at seqno {final_seqno}")
    return 0


def _cmd_obs_smoke(args) -> int:
    """CI smoke for the observability layer: traced storm + span checks.

    Starts a traced, durable replica fleet, storms it with traced
    readers and writers (every request carries trace context end to
    end), then checks the tracing contract on the recorded spans:

    * **one write, one tree** — a single traced ``rate`` yields a
      connected span tree from the client root through leader admission
      and the WAL (``wal.commit`` → ``wal.append``/``wal.fsync`` →
      ``wal.ship``) to every follower's ``wal.follower_apply``;
    * **durations nest** — no span in that tree outlasts the client's
      observed latency, and the WAL children fit inside the commit;
    * **fusion fans in** — concurrent reads share ``fusion.window``
      spans whose ``fusion.waiter`` children index the response order;
    * **metrics unify** — the ``metrics`` frame serves the fleet-wide
      registry snapshot (server histograms, WAL fsync latency, fusion
      counters) under dotted names, while ``stats`` keeps its flat
      aliases.

    The recorded spans go to ``--trace-out`` as JSONL and the registry
    snapshot to ``--metrics-out`` — the CI artifacts.
    """
    from repro.utils.environment import machine_environment

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obs.npz"
        wal_dir = Path(tmp) / "mutation-log"
        data = make_low_rank_dataset(SyntheticConfig(
            n_users=60, n_movies=45, rank=3, density=0.3, noise_std=0.3,
            test_fraction=0.2, seed=17))
        config = BPMFConfig(num_latent=4, alpha=4.0, burn_in=2, n_samples=3)
        GibbsSampler(config, SamplerOptions(
            checkpoint=CheckpointConfig(path=path, every=2))).run(
            data.split.train, data.split, seed=0)
        reference = PredictionService(path)
        read_users = list(range(0, reference.n_train_users, 2))

        # One tracer for clients *and* fleet: the smoke runs in-process,
        # so every hop of every trace lands in the same ring buffer.
        tracer = Tracer(capacity=65536)
        failures: list[BaseException] = []
        replicas = ReplicaSet(lambda index: PredictionService(path),
                              n_replicas=args.replicas,
                              wal_dir=str(wal_dir),
                              fuse_window_ms=args.fuse_window,
                              tracer=tracer)
        with replicas:
            # Traced read/write storm; readers pin to one replica so
            # concurrent top-N calls fuse into shared windows.
            barrier = threading.Barrier(args.clients)

            def storm(worker: int) -> None:
                try:
                    with ServingClient(replicas.addresses[:1],
                                       tracer=tracer) as client:
                        user = client.fold_in(
                            np.array([0, 1, 2]), np.array([4.0, 3.0, 5.0]))
                        barrier.wait(timeout=30.0)
                        for index, read_user in enumerate(read_users):
                            client.top_n(read_user, n=5)
                            if index % 4 == worker % 4:
                                client.rate(user, np.array([index]),
                                            np.array([3.0]))
                except BaseException as error:  # noqa: BLE001
                    failures.append(error)

            threads = [threading.Thread(target=storm, args=(worker,))
                       for worker in range(args.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads), \
                "storm threads hung"
            assert not failures, failures[:3]

            # The acceptance write: one clean traced mutation, timed.
            with ServingClient(replicas.addresses,
                               tracer=tracer) as client:
                user = client.fold_in(np.array([3, 4]),
                                      np.array([2.0, 5.0]))
                begin = time.perf_counter()
                client.rate(user, np.array([0]), np.array([1.0]))
                write_ms = (time.perf_counter() - begin) * 1e3

                # Satellite surfaces: unified metrics + flat aliases.
                snapshot = client.metrics()
                flat = client.stats()
                health = client.health()

        spans = tracer.spans()
        children: dict = {}
        for span in spans:
            children.setdefault(span["parent_id"], []).append(span)

        def subtree(root):
            collected, stack = [], [root]
            while stack:
                node = stack.pop()
                collected.append(node)
                stack.extend(children.get(node["span_id"], []))
            return collected

        # -- one write, one tree ------------------------------------------
        roots = [span for span in spans
                 if span["name"] == "client.rate"
                 and span["parent_id"] is None]
        assert roots, "no traced client.rate root span recorded"
        root = roots[-1]  # the clean post-storm write
        tree = subtree(root)
        names = {span["name"] for span in tree}
        required = {"client.attempt", "server.admit", "server.queue",
                    "wal.commit", "wal.append", "wal.fsync", "wal.ship",
                    "wal.follower_apply"}
        missing = required - names
        assert not missing, f"write trace is missing spans: {missing}"
        assert {span["trace_id"] for span in tree} == {root["trace_id"]}, \
            "write tree mixes trace ids"
        applies = [span for span in tree
                   if span["name"] == "wal.follower_apply"]
        assert len(applies) == args.replicas - 1, \
            f"{len(applies)} follower applies for {args.replicas} replicas"

        # -- durations nest ------------------------------------------------
        for span in tree:
            assert span["dur_ms"] <= root["dur_ms"] + 1.0, \
                f"{span['name']} outlasted its client root"
        assert root["dur_ms"] <= write_ms + 5.0, \
            "root span outlasted the observed client latency"
        commit = max((span for span in tree
                      if span["name"] == "wal.commit"),
                     key=lambda span: span["ts"])
        wal_children = [span for span in children.get(commit["span_id"], [])
                        if span["name"] in ("wal.append", "wal.fsync")]
        assert sum(span["dur_ms"] for span in wal_children) \
            <= commit["dur_ms"] + 1.0, "WAL children overflow wal.commit"

        # -- fusion fans in ------------------------------------------------
        windows = [span for span in spans
                   if span["name"] == "fusion.window"]
        assert windows, "no fused window was traced"
        shared = 0
        for window in windows:
            waiters = [span for span in children.get(window["span_id"], [])
                       if span["name"] == "fusion.waiter"]
            indexes = [span["attrs"]["index"] for span in waiters]
            assert sorted(indexes) == list(range(len(indexes))), \
                f"waiter indexes {indexes} do not cover response order"
            shared = max(shared, len(waiters))
        assert shared >= 2, "no window ever fused two traced waiters"

        # -- metrics unify -------------------------------------------------
        for prefix in ("serving.server.requests",
                       "serving.server.queue_wait_ms",
                       "serving.fusion.windows",
                       "wal.append.fsync_ms",
                       "wal.applied_seqno"):
            assert any(key.startswith(prefix) for key in snapshot), \
                f"registry snapshot lacks {prefix}"
        assert "n_folded_in" in flat, "flat stats alias dropped"
        assert any(key.startswith("serving.server.")
                   for key in health["metrics"]), \
            "health frame lost its dotted metrics view"

        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf8") as handle:
                for span in spans:
                    handle.write(json.dumps(span, sort_keys=True,
                                            default=str) + "\n")
        if args.metrics_out:
            payload = {
                "benchmark": "obs-smoke",
                "environment": machine_environment(),
                "replicas": args.replicas,
                "clients": args.clients,
                "tracer": tracer.stats(),
                "metrics": snapshot,
            }
            with open(args.metrics_out, "w", encoding="utf8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True,
                          default=str)
                handle.write("\n")
        print(f"OBS SMOKE OK: {len(spans)} spans from {args.clients} traced "
              f"clients over {args.replicas} replicas; write tree "
              f"client → admit → wal.commit → append/fsync → ship → "
              f"{len(applies)} follower applies in {root['dur_ms']:.2f} ms, "
              f"{len(windows)} fused windows (deepest {shared} waiters), "
              f"{len(snapshot)} registry series")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Train, snapshot, serve and query BPMF posteriors.")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train and write a snapshot")
    _add_snapshot_arg(train)
    _add_dataset_args(train)
    train.add_argument("--num-latent", type=int, default=8)
    train.add_argument("--alpha", type=float, default=4.0)
    train.add_argument("--burn-in", type=int, default=5)
    train.add_argument("--n-samples", type=int, default=10)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--engine", choices=_ENGINES, default="batched",
                       help="update-engine: batched (default), shared "
                            "(process pool over shared memory), reference")
    train.add_argument("--workers", type=int, default=None,
                       help="processes (--engine shared) or threads "
                            "(batched, reference) per phase")
    train.add_argument("--checkpoint-every", type=int, default=None,
                       help="save every k sweeps (default: final sweep only)")
    train.add_argument("--resume", default=None,
                       help="snapshot to continue from")
    train.set_defaults(func=_cmd_train)

    info = commands.add_parser("info", help="describe a snapshot")
    _add_snapshot_arg(info)
    info.set_defaults(func=_cmd_info)

    query = commands.add_parser("query", help="one-shot predictions / top-N")
    _add_snapshot_arg(query)
    query.add_argument("--mode", choices=("mean", "last"), default="mean")
    query.add_argument("--user", type=int, default=None)
    query.add_argument("--top", type=int, default=10)
    query.add_argument("--pairs", nargs="*", default=[],
                       help="user:item pairs, e.g. 0:3 7:12")
    query.set_defaults(func=_cmd_query)

    serve = commands.add_parser("serve",
                                help="answer a line protocol on stdin")
    _add_snapshot_arg(serve)
    serve.add_argument("--mode", choices=("mean", "last"), default="mean")
    serve.add_argument("--shards", type=int, default=0,
                       help="serve through an N-shard worker-pool gateway "
                            "(0 = single-process)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker processes for --shards (default: one "
                            "per shard)")
    serve.add_argument("--watch", action="store_true",
                       help="hot-swap new versions of --snapshot while "
                            "serving (requires --shards)")
    serve.add_argument("--watch-interval", type=float, default=0.5,
                       help="snapshot poll period in seconds")
    serve.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="serve the framed RPC protocol over TCP "
                            "instead of the stdin line protocol")
    serve.add_argument("--replicas", type=int, default=1,
                       help="independent gateway replicas for --tcp "
                            "(ports PORT..PORT+N-1)")
    serve.add_argument("--fuse-window", type=float, default=2.0,
                       metavar="MS",
                       help="fallback window for fused top-N dispatch, the "
                            "default --tcp path (0 disables fusion)")
    serve.add_argument("--fuse-max-batch", type=int, default=64,
                       help="flush a fusion window early at this many "
                            "requests")
    serve.add_argument("--max-in-flight", type=int, default=64,
                       help="bound on concurrently admitted requests per "
                            "replica (--tcp)")
    serve.add_argument("--wal", default=None, metavar="DIR",
                       help="directory for the write leader's durable "
                            "mutation log (--tcp; default: in-memory log "
                            "— replication without crash durability)")
    serve.add_argument("--cooldown", type=float, default=1.0,
                       help="base backoff after a failed follower "
                            "shipment, seconds (doubles per consecutive "
                            "failure)")
    serve.add_argument("--backoff-max", type=float, default=30.0,
                       help="cap on the exponential shipment backoff, "
                            "seconds")
    serve.add_argument("--wal-sync-every", type=int, default=1,
                       help="fsync the log every N appends (1 = before "
                            "every ack, the strict default)")
    serve.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="enable request tracing and stream finished "
                            "spans to JSONL files in DIR (--tcp; default: "
                            "tracing off)")
    _add_log_level(serve)
    serve.set_defaults(func=_cmd_serve)

    smoke = commands.add_parser("smoke",
                                help="end-to-end train/snapshot/serve check")
    _add_log_level(smoke)
    smoke.set_defaults(func=_cmd_smoke)

    cluster_smoke = commands.add_parser(
        "cluster-smoke",
        help="sharded gateway + hot-swap + bit-parity self check")
    cluster_smoke.add_argument("--shards", type=int, default=2)
    cluster_smoke.add_argument("--latency-out", default=None,
                               help="write observed latencies to this JSON")
    _add_log_level(cluster_smoke)
    cluster_smoke.set_defaults(func=_cmd_cluster_smoke)

    net_smoke = commands.add_parser(
        "net-smoke",
        help="TCP frontend + fusion parity + replica failover self check")
    net_smoke.add_argument("--replicas", type=int, default=2)
    net_smoke.add_argument("--fuse-window", type=float, default=2.0,
                           metavar="MS", help="0 disables fusion")
    net_smoke.add_argument("--encoding", choices=("json", "binary"),
                           default="binary",
                           help="wire encoding the smoke clients negotiate")
    net_smoke.add_argument("--pipeline", action="store_true",
                           help="also run a pipelined top-N parity pass")
    net_smoke.add_argument("--cooldown", type=float, default=0.05,
                           help="client failover backoff base, seconds")
    net_smoke.add_argument("--backoff-max", type=float, default=1.0,
                           help="client failover backoff cap, seconds")
    net_smoke.add_argument("--latency-out", default=None,
                           help="write observed latencies to this JSON")
    _add_log_level(net_smoke)
    net_smoke.set_defaults(func=_cmd_net_smoke)

    wal_smoke = commands.add_parser(
        "wal-smoke",
        help="durable mutation log: storm + leader kill + convergence "
             "self check")
    wal_smoke.add_argument("--replicas", type=int, default=3)
    wal_smoke.add_argument("--writes", type=int, default=240,
                           help="total mutations across the writer storm")
    wal_smoke.add_argument("--wal-sync-every", type=int, default=1,
                           help="fsync cadence under test (1 = every ack)")
    wal_smoke.add_argument("--cooldown", type=float, default=0.05,
                           help="client failover backoff base, seconds")
    wal_smoke.add_argument("--backoff-max", type=float, default=1.0,
                           help="client failover backoff cap, seconds")
    wal_smoke.add_argument("--latency-out", default=None,
                           help="write mutation latencies to this JSON")
    _add_log_level(wal_smoke)
    wal_smoke.set_defaults(func=_cmd_wal_smoke)

    chaos_smoke = commands.add_parser(
        "chaos-smoke",
        help="seeded fault-injection drill against a replica fleet")
    chaos_smoke.add_argument("--seed", type=int, default=0,
                             help="fault schedule seed (same seed, same "
                                  "schedule, byte for byte)")
    chaos_smoke.add_argument("--replicas", type=int, default=3)
    chaos_smoke.add_argument("--writes", type=int, default=120,
                             help="acked mutations the storm commits")
    chaos_smoke.add_argument("--faults", type=int, default=24,
                             help="per-site fault events to schedule")
    chaos_smoke.add_argument("--horizon", type=int, default=150,
                             help="call-step range the per-site faults "
                                  "land in")
    chaos_smoke.add_argument("--fleet-events", type=int, default=3,
                             help="kill/pause events on the fleet timeline")
    chaos_smoke.add_argument("--fleet-span", type=float, default=5.0,
                             help="seconds the fleet timeline spans")
    chaos_smoke.add_argument("--deadline-ms", type=float, default=2000.0,
                             help="per-read deadline budget")
    chaos_smoke.add_argument("--cooldown", type=float, default=0.05,
                             help="failover/shipping backoff base, seconds")
    chaos_smoke.add_argument("--backoff-max", type=float, default=1.0,
                             help="failover/shipping backoff cap, seconds")
    chaos_smoke.add_argument("--report-out", default=None,
                             help="write the schedule + fault log + "
                                  "invariant report as JSON")
    chaos_smoke.add_argument("--trace-out", default=None,
                             help="trace the drill and write the recorded "
                                  "spans (fired faults annotated) to this "
                                  "JSONL file")
    _add_log_level(chaos_smoke)
    chaos_smoke.set_defaults(func=_cmd_chaos_smoke)

    obs_smoke = commands.add_parser(
        "obs-smoke",
        help="traced storm: span-tree, fusion and metrics-registry "
             "self check")
    obs_smoke.add_argument("--replicas", type=int, default=3)
    obs_smoke.add_argument("--clients", type=int, default=4,
                           help="concurrent traced storm clients")
    obs_smoke.add_argument("--fuse-window", type=float, default=20.0,
                           metavar="MS",
                           help="fusion window under test (wide, so the "
                                "storm reliably shares windows)")
    obs_smoke.add_argument("--trace-out", default=None,
                           help="write the recorded spans to this JSONL "
                                "file")
    obs_smoke.add_argument("--metrics-out", default=None,
                           help="write the fleet registry snapshot to "
                                "this JSON")
    _add_log_level(obs_smoke)
    obs_smoke.set_defaults(func=_cmd_obs_smoke)

    args = parser.parse_args(argv)
    if getattr(args, "log_level", None):
        set_verbosity(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
