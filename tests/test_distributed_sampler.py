"""Correctness tests for the distributed sampler (streaming and bulk)."""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.core.gibbs import GibbsSampler
from repro.core.priors import BPMFConfig
from repro.distributed import spmd
from repro.distributed.sampler import DistributedGibbsSampler, DistributedOptions
from repro.mpi.net import start_local_world
from repro.mpi.net.world import DEFAULT_OP_TIMEOUT
from repro.utils.validation import ValidationError


def run_per_process_worlds(sampler, n_ranks, train, split, seed):
    """Drive ``sampler`` over ``n_ranks`` per-process socket worlds (one
    caller thread per rank, as separate OS processes would); returns the
    per-rank ``(result, info)`` pairs."""
    worlds = start_local_world(n_ranks, op_timeout=30.0)
    outcomes = [None] * n_ranks

    def drive(rank):
        try:
            outcomes[rank] = sampler.run(train, split, seed=seed,
                                         comm_world=worlds[rank])
        except BaseException:
            worlds[rank].abort(f"rank {rank} failed")
            raise

    threads = [threading.Thread(target=drive, args=(rank,))
               for rank in range(n_ranks)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        for world in worlds:
            world.close()
    assert all(outcome is not None for outcome in outcomes)
    return outcomes


def live_rank_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("repro-spmd-rank")]


class TestDistributedSamplerParity:
    def test_gather_mode_bitwise_parity_with_sequential(self, tiny_dataset, tiny_config):
        """With gathered hyperparameters the distributed chain is identical
        to the sequential one — the strongest form of the paper's accuracy
        parity claim."""
        seq = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                            tiny_dataset.split, seed=21)
        dist, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=4, hyper_mode="gather",
                                            buffer_capacity=8)
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=21)
        np.testing.assert_array_equal(dist.state.user_factors,
                                      seq.state.user_factors)
        np.testing.assert_array_equal(dist.state.movie_factors,
                                      seq.state.movie_factors)
        assert dist.rmse_burn_in == seq.rmse_burn_in
        assert dist.rmse_running_mean == seq.rmse_running_mean
        np.testing.assert_array_equal(dist.predictions, seq.predictions)

    def test_gather_mode_factor_means_match_sequential(self, tiny_dataset,
                                                       tiny_config):
        """Rank 0 accumulates the posterior-mean factors a snapshot serves
        from, bit-equal to the sequential sampler's accumulator."""
        seq = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                            tiny_dataset.split, seed=21)
        sampler = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3, hyper_mode="gather"))
        in_process, _ = sampler.run(tiny_dataset.split.train,
                                    tiny_dataset.split, seed=21)
        per_process = run_per_process_worlds(
            sampler, 3, tiny_dataset.split.train, tiny_dataset.split,
            seed=21)[0][0]
        for dist in (in_process, per_process):
            assert dist.factor_means is not None
            assert dist.factor_means.n_samples == seq.factor_means.n_samples
            np.testing.assert_array_equal(dist.factor_means.user_sum,
                                          seq.factor_means.user_sum)
            np.testing.assert_array_equal(dist.factor_means.movie_sum,
                                          seq.factor_means.movie_sum)

    def test_threaded_ranks_match_sequential(self, tiny_dataset, tiny_config):
        """n_workers means on every rank what it means in one process: 2
        ranks, each mapping its owned buckets over 2 threads, sample the
        sequential chain bit for bit."""
        seq = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                            tiny_dataset.split, seed=21)
        dist, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=2, hyper_mode="gather",
                                            engine="batched", n_workers=2)
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=21)
        np.testing.assert_array_equal(dist.state.user_factors,
                                      seq.state.user_factors)
        np.testing.assert_array_equal(dist.state.movie_factors,
                                      seq.state.movie_factors)
        assert dist.rmse_burn_in == seq.rmse_burn_in
        assert dist.rmse_running_mean == seq.rmse_running_mean
        np.testing.assert_array_equal(dist.predictions, seq.predictions)

    def test_shared_engine_matches_batched_distributed_run(self, tiny_dataset,
                                                           tiny_config):
        """Each rank's per-node phase through the process pool is
        bit-identical to the in-process batched engine."""
        batched, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3, engine="batched")
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=21)
        before = set(multiprocessing.active_children())
        sampler = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3, engine="shared",
                                            n_workers=2))
        shared, _ = sampler.run(tiny_dataset.split.train, tiny_dataset.split,
                                seed=21)
        np.testing.assert_array_equal(shared.state.user_factors,
                                      batched.state.user_factors)
        np.testing.assert_array_equal(shared.state.movie_factors,
                                      batched.state.movie_factors)
        # Every rank's pool was closed by run_spmd's finally.
        assert set(multiprocessing.active_children()) <= before

    def test_stats_mode_statistical_parity(self, tiny_dataset, tiny_config):
        seq = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                            tiny_dataset.split, seed=21)
        dist, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3, hyper_mode="stats")
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=21)
        assert abs(dist.final_rmse - seq.final_rmse) < 0.1

    def test_rank_count_does_not_change_gather_results(self, tiny_dataset, tiny_config):
        results = []
        for n_ranks in (1, 2, 5):
            result, _ = DistributedGibbsSampler(
                tiny_config, DistributedOptions(n_ranks=n_ranks, hyper_mode="gather")
            ).run(tiny_dataset.split.train, tiny_dataset.split, seed=8)
            results.append(result)
        for result in results[1:]:
            np.testing.assert_allclose(result.state.user_factors,
                                       results[0].state.user_factors, atol=1e-8)

    def test_buffer_capacity_does_not_change_results(self, tiny_dataset, tiny_config):
        small_buffers, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3, buffer_capacity=1,
                                            hyper_mode="gather")
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=5)
        large_buffers, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3, buffer_capacity=1000,
                                            hyper_mode="gather")
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=5)
        np.testing.assert_allclose(small_buffers.state.user_factors,
                                   large_buffers.state.user_factors)

    def test_bulk_synchronous_sampler_same_samples_fewer_messages(self, tiny_dataset,
                                                                  tiny_config):
        """Bulk-synchronous exchange is a buffer no phase can fill: one
        message per communicating pair and phase, the same samples."""
        train = tiny_dataset.split.train
        streaming, streaming_info = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=4, buffer_capacity=4,
                                            hyper_mode="gather")
        ).run(train, tiny_dataset.split, seed=13)
        bulk, bulk_info = DistributedGibbsSampler(
            tiny_config, DistributedOptions(
                n_ranks=4, buffer_capacity=max(train.n_users, train.n_movies),
                hyper_mode="gather")
        ).run(train, tiny_dataset.split, seed=13)
        np.testing.assert_array_equal(bulk.state.user_factors,
                                      streaming.state.user_factors)
        assert bulk_info.buffer_stats.n_messages < streaming_info.buffer_stats.n_messages
        # Exactly one message per communicating (pair, phase, sweep).
        plan = bulk_info.plan
        pairs_per_sweep = sum(
            int(np.count_nonzero(plan.items_between(phase)))
            for phase in ("movies", "users"))
        assert bulk_info.buffer_stats.n_messages == \
            pairs_per_sweep * tiny_config.total_iterations


class TestDistributedDiagnostics:
    def test_run_info_traffic_consistency(self, tiny_dataset, tiny_config):
        result, info = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=4, buffer_capacity=8)
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=2)
        # Every item exchange planned must have happened each iteration.
        expected_items = info.items_exchanged_per_iteration * tiny_config.total_iterations
        assert info.buffer_stats.n_items == expected_items
        assert info.n_messages > 0
        assert info.bytes_sent > 0
        assert result.items_updated == tiny_config.total_iterations * (
            tiny_dataset.split.train.n_users + tiny_dataset.split.train.n_movies)

    def test_rank0_counts_every_ranks_items(self, tiny_dataset, tiny_config):
        """Over per-process worlds rank 0 reports the whole chain's item
        updates (the sequential count), not only its own block's."""
        sampler = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3, buffer_capacity=8))
        outcomes = run_per_process_worlds(sampler, 3, tiny_dataset.split.train,
                                          tiny_dataset.split, seed=2)
        train = tiny_dataset.split.train
        assert outcomes[0][0].items_updated == \
            tiny_config.total_iterations * (train.n_users + train.n_movies)
        assert all(result is None for result, _ in outcomes[1:])

    def test_partition_can_be_supplied(self, tiny_dataset, tiny_config):
        from repro.distributed.partition import partition_ratings
        partition = partition_ratings(tiny_dataset.split.train, 2)
        result, info = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=2)
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=2,
              partition=partition)
        assert info.partition is partition

    def test_partition_rank_mismatch_rejected(self, tiny_dataset, tiny_config):
        from repro.distributed.partition import partition_ratings
        partition = partition_ratings(tiny_dataset.split.train, 3)
        with pytest.raises(ValidationError):
            DistributedGibbsSampler(
                tiny_config, DistributedOptions(n_ranks=2)
            ).run(tiny_dataset.split.train, tiny_dataset.split, partition=partition)

    def test_invalid_options(self):
        with pytest.raises(Exception):
            DistributedOptions(n_ranks=0)
        with pytest.raises(Exception):
            DistributedOptions(hyper_mode="nonsense")

    def test_accuracy_on_low_rank_signal(self, small_dataset):
        config = BPMFConfig(num_latent=5, burn_in=5, n_samples=8, alpha=8.0)
        result, _ = DistributedGibbsSampler(
            config, DistributedOptions(n_ranks=4)
        ).run(small_dataset.split.train, small_dataset.split, seed=3)
        assert result.final_rmse < 2.5 * small_dataset.config.noise_std


class TestInProcessHost:
    def test_rank_error_surfaces_fast_and_leaves_no_threads(
            self, tiny_dataset, tiny_config, monkeypatch):
        """A non-transport error in one rank thread aborts the world: it
        reaches the caller well under the op timeout, and every rank
        thread has ended by then."""
        original = spmd._SpmdRank.run_phase

        def failing_phase(self, entity, prior, noise):
            if self.rank == 1 and entity == "users":
                raise ArithmeticError("rank 1 blew up")
            return original(self, entity, prior, noise)

        monkeypatch.setattr(spmd._SpmdRank, "run_phase", failing_phase)
        sampler = DistributedGibbsSampler(tiny_config,
                                          DistributedOptions(n_ranks=3))
        started = time.monotonic()
        with pytest.raises(ArithmeticError, match="rank 1 blew up"):
            sampler.run(tiny_dataset.split.train, tiny_dataset.split, seed=2)
        assert time.monotonic() - started < 10.0 < DEFAULT_OP_TIMEOUT
        assert live_rank_threads() == []

    def test_generator_seed_gives_every_rank_one_stream(self, tiny_dataset,
                                                        tiny_config):
        """A generator seed (or fresh entropy, which becomes one) is
        replayed on every rank thread, so the chain stays coherent: in
        gather mode it equals the sequential chain from that generator."""
        rng = np.random.default_rng(99)
        replay = np.random.default_rng(99)
        dist, _ = DistributedGibbsSampler(
            tiny_config, DistributedOptions(n_ranks=3, hyper_mode="gather")
        ).run(tiny_dataset.split.train, tiny_dataset.split, seed=rng)
        seq = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                            tiny_dataset.split, seed=replay)
        np.testing.assert_array_equal(dist.state.user_factors,
                                      seq.state.user_factors)
        # The caller's generator advanced exactly as a sequential run's.
        assert rng.bit_generator.state == replay.bit_generator.state
