"""Tests for the threaded sampler (correctness) and the Figure 3 sweep (shape).

The shared-memory sampler is :class:`repro.core.gibbs.GibbsSampler` with
``SamplerOptions(n_workers=k)``; every thread count must sample the
sequential chain bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.multicore.sweep import default_schedulers, multicore_thread_sweep
from repro.multicore.tasks import phase_tasks, sweep_tasks
from repro.utils.validation import ValidationError


class TestMulticoreTasks:
    def test_phase_tasks_counts(self, chembl_tiny):
        ratings = chembl_tiny.ratings
        movie_tasks = phase_tasks(ratings, "movies", num_latent=8)
        user_tasks = phase_tasks(ratings, "users", num_latent=8)
        assert len(movie_tasks) == ratings.n_movies
        assert len(user_tasks) == ratings.n_users

    def test_task_ids_do_not_collide_across_phases(self, chembl_tiny):
        movie_tasks, user_tasks = sweep_tasks(chembl_tiny.ratings, num_latent=8)
        ids = {t.task_id for t in movie_tasks} | {t.task_id for t in user_tasks}
        assert len(ids) == len(movie_tasks) + len(user_tasks)

    def test_invalid_phase(self, chembl_tiny):
        with pytest.raises(ValueError):
            phase_tasks(chembl_tiny.ratings, "neither", num_latent=8)

    def test_task_durations_follow_degrees(self, chembl_tiny):
        ratings = chembl_tiny.ratings
        tasks = phase_tasks(ratings, "movies", num_latent=8)
        degrees = ratings.movie_degrees()
        heaviest = int(np.argmax(degrees))
        lightest = int(np.argmin(degrees))
        assert tasks[heaviest].duration > tasks[lightest].duration


def threaded(config, n_workers, engine="batched"):
    """The shared-memory sampler: GibbsSampler on ``n_workers`` threads."""
    return GibbsSampler(config, SamplerOptions(engine=engine,
                                               n_workers=n_workers))


def assert_same_chain(left, right):
    np.testing.assert_array_equal(left.state.user_factors,
                                  right.state.user_factors)
    np.testing.assert_array_equal(left.state.movie_factors,
                                  right.state.movie_factors)
    assert left.rmse_burn_in == right.rmse_burn_in
    assert left.rmse_running_mean == right.rmse_running_mean
    np.testing.assert_array_equal(left.predictions, right.predictions)


class TestMulticoreSamplerCorrectness:
    def test_bitwise_parity_with_sequential(self, tiny_dataset, tiny_config):
        """Two threads must reproduce the sequential chain exactly."""
        seq = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                            tiny_dataset.split, seed=9)
        multi = threaded(tiny_config, 2).run(tiny_dataset.split.train,
                                             tiny_dataset.split, seed=9)
        assert_same_chain(multi, seq)
        assert multi.final_rmse == seq.final_rmse

    def test_thread_count_does_not_change_results(self, tiny_dataset,
                                                  tiny_config):
        """1 and 4 threads sample the same chain on both in-process
        engines (the reference engine maps items in chunks, the batched
        engine one degree bucket per task)."""
        for engine in ("batched", "reference"):
            single = threaded(tiny_config, 1, engine).run(
                tiny_dataset.split.train, tiny_dataset.split, seed=3)
            four = threaded(tiny_config, 4, engine).run(
                tiny_dataset.split.train, tiny_dataset.split, seed=3)
            assert_same_chain(four, single)

    def test_threads_map_over_buckets_and_item_chunks(self):
        """n_workers builds a thread map for in-process engines only."""
        from repro.core.gibbs import REFERENCE_CHUNK, make_phase_engine

        _, none = make_phase_engine(SamplerOptions())
        assert none is None
        _, batched = make_phase_engine(SamplerOptions(n_workers=3))
        assert batched.__self__.n_threads == 3
        assert batched.__self__.chunk_size == 1
        _, reference = make_phase_engine(SamplerOptions(engine="reference",
                                                        n_workers=3))
        assert reference.__self__.chunk_size == REFERENCE_CHUNK
        engine, shared = make_phase_engine(SamplerOptions(engine="shared",
                                                          n_workers=3))
        assert shared is None and engine.n_workers == 3

    def test_shared_engine_bitwise_parity_with_sequential(self, tiny_dataset,
                                                          tiny_config):
        """engine="shared" reproduces the sequential chain bit for bit,
        and the run tears its worker pool down on exit."""
        seq = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                            tiny_dataset.split, seed=9)
        sampler = threaded(tiny_config, 2, engine="shared")
        shared = sampler.run(tiny_dataset.split.train, tiny_dataset.split,
                             seed=9)
        assert_same_chain(shared, seq)
        assert shared.final_rmse == seq.final_rmse
        assert not sampler.engine.pool_running  # closed by run()'s finally

    def test_trace_lengths(self, tiny_dataset, tiny_config):
        result = threaded(tiny_config, 2).run(
            tiny_dataset.split.train, tiny_dataset.split, seed=0)
        assert len(result.rmse_burn_in) == tiny_config.burn_in
        assert len(result.rmse_running_mean) == tiny_config.n_samples

    def test_accuracy_on_low_rank_signal(self, small_dataset):
        config = BPMFConfig(num_latent=5, burn_in=6, n_samples=10, alpha=8.0)
        result = threaded(config, 2).run(
            small_dataset.split.train, small_dataset.split, seed=1)
        assert result.final_rmse < 2.5 * small_dataset.config.noise_std

    def test_mismatched_state_rejected(self, tiny_dataset, small_dataset, tiny_config):
        from repro.core.state import initialize_state
        state = initialize_state(small_dataset.split.train, tiny_config, 0)
        with pytest.raises(ValidationError, match="shape"):
            threaded(tiny_config, 2).run(tiny_dataset.split.train,
                                         tiny_dataset.split, seed=0,
                                         state=state)


class TestFigure3Sweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        # A mid-size ChEMBL-like workload: large enough for the heavy-tailed
        # target degrees to create the load imbalance Figure 3 is about.
        from repro.datasets import make_chembl_like
        ratings = make_chembl_like(scale=100.0, seed=11).ratings
        return multicore_thread_sweep(ratings, num_latent=32,
                                      thread_counts=(1, 2, 4, 8, 16))

    def test_all_three_execution_models_present(self, sweep):
        assert set(sweep.throughput) == {"TBB", "OpenMP", "GraphLab"}

    def test_throughput_scales_with_threads(self, sweep):
        """Figure 3: every implementation scales with the core count."""
        for name, series in sweep.throughput.items():
            assert series[-1] > 2.0 * series[0], name

    def test_work_stealing_beats_graph_engine_everywhere(self, sweep):
        """Figure 3: the hand-tuned versions clearly outperform GraphLab."""
        for tbb, graphlab in zip(sweep.throughput["TBB"],
                                 sweep.throughput["GraphLab"]):
            assert tbb > 2.0 * graphlab

    def test_work_stealing_beats_static_at_high_thread_count(self, sweep):
        """Figure 3: TBB > OpenMP once load imbalance starts to matter."""
        assert sweep.throughput["TBB"][-1] > sweep.throughput["OpenMP"][-1]

    def test_speedup_series_normalised(self, sweep):
        for name in sweep.throughput:
            speedup = sweep.speedup(name)
            assert speedup[0] == pytest.approx(1.0)
            assert all(later >= 0.9 for later in speedup)

    def test_table_rendering(self, sweep):
        table = sweep.to_table()
        text = table.render()
        assert "threads" in text
        assert "TBB" in text
        assert len(table.rows) == 5

    def test_details_kept_on_request(self, chembl_tiny):
        result = multicore_thread_sweep(chembl_tiny.ratings, num_latent=8,
                                        thread_counts=(1, 2), keep_details=True)
        assert len(result.schedule_details["TBB"]) == 4  # 2 phases x 2 counts

    def test_default_schedulers_factory(self):
        schedulers = default_schedulers()
        assert set(schedulers) == {"TBB", "OpenMP", "GraphLab"}

    def test_invalid_thread_count(self, chembl_tiny):
        with pytest.raises(Exception):
            multicore_thread_sweep(chembl_tiny.ratings, thread_counts=(0, 2))
