"""Checkpoint store tests: round-trip fidelity and exact-resume parity.

The headline contract (alongside ``tests/test_batch_engine_parity.py``):
a chain checkpointed at sweep k and resumed reproduces the uninterrupted
chain *bit for bit* — same factors, same RMSE traces — for the sequential,
threaded (``n_workers=2``) and distributed samplers, and even across
backends (a sequential checkpoint resumed on two threads).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset
from repro.distributed.sampler import DistributedGibbsSampler, DistributedOptions
from repro.serving.checkpoint import (
    SNAPSHOT_FORMAT,
    CheckpointConfig,
    Snapshot,
    encode_rng_state,
    load_snapshot,
    restore_generator,
    save_snapshot,
    snapshot_from_result,
)
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def data():
    return make_low_rank_dataset(SyntheticConfig(
        n_users=50, n_movies=35, rank=3, density=0.3, noise_std=0.25,
        test_fraction=0.2, seed=77))


FULL = BPMFConfig(num_latent=6, alpha=4.0, burn_in=2, n_samples=4)
#: Same chain stopped after 3 of FULL's 6 sweeps (burn-in + 1 sample).
HALF = BPMFConfig(num_latent=6, alpha=4.0, burn_in=2, n_samples=1)


def _train_with_checkpoint(sampler_cls, options, data, path, seed=5):
    options.checkpoint = CheckpointConfig(path=path)
    return sampler_cls(HALF, options).run(data.split.train, data.split,
                                          seed=seed)


class TestRngRoundTrip:
    def test_generator_state_continues_exactly(self):
        rng = np.random.default_rng(123)
        rng.standard_normal(100)
        clone = restore_generator(json.loads(json.dumps(encode_rng_state(rng))))
        np.testing.assert_array_equal(clone.standard_normal(50),
                                      rng.standard_normal(50))

    def test_mt19937_array_state_round_trips(self):
        rng = np.random.Generator(np.random.MT19937(7))
        rng.standard_normal(10)
        clone = restore_generator(json.loads(json.dumps(encode_rng_state(rng))))
        np.testing.assert_array_equal(clone.standard_normal(10),
                                      rng.standard_normal(10))

    def test_unknown_bit_generator_rejected(self):
        with pytest.raises(ValidationError):
            restore_generator({"bit_generator": "NotAGenerator"})


class TestSnapshotRoundTrip:
    def test_all_fields_survive(self, data, tmp_path):
        path = tmp_path / "snap.npz"
        result = GibbsSampler(HALF).run(data.split.train, data.split, seed=1)
        rng = np.random.default_rng(9)
        snapshot = snapshot_from_result(result, rng=rng, offset=1.5,
                                        metadata={"run": "unit-test"})
        snapshot.prediction_sum = np.arange(data.split.n_test, dtype=np.float64)
        snapshot.prediction_count = 3
        save_snapshot(snapshot, path)
        loaded = load_snapshot(path)

        np.testing.assert_array_equal(loaded.state.user_factors,
                                      result.state.user_factors)
        np.testing.assert_array_equal(loaded.state.movie_factors,
                                      result.state.movie_factors)
        np.testing.assert_array_equal(loaded.state.user_prior.precision,
                                      result.state.user_prior.precision)
        assert loaded.state.iteration == HALF.total_iterations
        assert loaded.config["num_latent"] == 6.0
        assert loaded.alpha == 4.0
        assert loaded.mean_count == result.factor_means.n_samples
        np.testing.assert_array_equal(loaded.mean_user_sum,
                                      result.factor_means.user_sum)
        np.testing.assert_array_equal(loaded.prediction_sum,
                                      snapshot.prediction_sum)
        assert loaded.prediction_count == 3
        assert loaded.rmse_running_mean == result.rmse_running_mean
        assert loaded.rmse_burn_in == result.rmse_burn_in
        assert loaded.items_updated == result.items_updated
        assert loaded.offset == 1.5
        assert loaded.metadata == {"run": "unit-test"}
        # The generator round-trips through the snapshot too.
        np.testing.assert_array_equal(
            restore_generator(loaded.rng_state).standard_normal(8),
            rng.standard_normal(8))

    def test_float32_snapshot_round_trip(self, data, tmp_path):
        """dtype="float32" halves the factor payloads; loading widens back
        to float64 with single-precision fidelity and verified integrity."""
        path64 = tmp_path / "snap64.npz"
        path32 = tmp_path / "snap32.npz"
        result = GibbsSampler(HALF).run(data.split.train, data.split, seed=1)
        snapshot = snapshot_from_result(result, rng=np.random.default_rng(9))
        save_snapshot(snapshot, path64)
        save_snapshot(snapshot, path32, dtype="float32")
        assert path32.stat().st_size < path64.stat().st_size
        loaded = load_snapshot(path32)  # checksum verifies narrowed payloads
        assert loaded.state.user_factors.dtype == np.float64
        np.testing.assert_allclose(loaded.state.user_factors,
                                   result.state.user_factors,
                                   rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(loaded.mean_user_sum,
                                   result.factor_means.user_sum,
                                   rtol=1e-6, atol=1e-6)
        # Priors and the RNG state never lose precision.
        np.testing.assert_array_equal(loaded.state.user_prior.precision,
                                      result.state.user_prior.precision)
        with pytest.raises(ValidationError):
            save_snapshot(snapshot, path32, dtype="float16")

    def test_checkpoint_config_dtype_flows_into_saves(self, data, tmp_path):
        path = tmp_path / "ck32.npz"
        options = SamplerOptions(
            checkpoint=CheckpointConfig(path=path, dtype="float32"))
        result = GibbsSampler(HALF, options).run(data.split.train, data.split,
                                                 seed=5)
        loaded = load_snapshot(path)
        np.testing.assert_allclose(loaded.state.user_factors,
                                   result.state.user_factors,
                                   rtol=1e-6, atol=1e-6)
        with pytest.raises(ValidationError):
            CheckpointConfig(path=path, dtype="int8")

    def test_bpmf_config_rebuilds(self, data, tmp_path):
        result = GibbsSampler(HALF).run(data.split.train, data.split, seed=1)
        snapshot = snapshot_from_result(result)
        save_snapshot(snapshot, tmp_path / "snap.npz")
        config = load_snapshot(tmp_path / "snap.npz").bpmf_config()
        assert config.num_latent == HALF.num_latent
        assert config.alpha == HALF.alpha
        assert config.total_iterations == HALF.total_iterations

    def test_posterior_mean_state_falls_back_to_last_sample(self, data):
        burn_only = Snapshot(state=GibbsSampler(HALF).run(
            data.split.train, data.split, seed=1).state)
        np.testing.assert_array_equal(
            burn_only.posterior_mean_state().user_factors,
            burn_only.state.user_factors)

    def test_tampered_snapshot_rejected(self, data, tmp_path):
        path = tmp_path / "snap.npz"
        result = GibbsSampler(HALF).run(data.split.train, data.split, seed=1)
        save_snapshot(snapshot_from_result(result), path)
        # Corrupt one factor entry while keeping the stored checksum.
        with np.load(path, allow_pickle=False) as archive:
            payload = {key: archive[key].copy() for key in archive.files}
        payload["user_factors"][0, 0] += 1e-3
        np.savez_compressed(path, **payload)
        with pytest.raises(ValidationError, match="integrity"):
            load_snapshot(path)
        # But verify=False loads it (forensics escape hatch).
        assert load_snapshot(path, verify=False).state.n_users == 50

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, format=np.array("something-else"))
        with pytest.raises(ValidationError, match="snapshot"):
            load_snapshot(path)

    def test_checkpoint_config_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            CheckpointConfig(path=tmp_path / "x.npz", every=0)
        config = CheckpointConfig(path=tmp_path / "x.npz", every=3)
        assert config.due(2, 10) and not config.due(3, 10)
        assert config.due(9, 10)  # final sweep always saves


class TestExactResume:
    """Checkpoint at sweep 3, resume to 6, compare with an unbroken run."""

    def test_sequential_resume_is_bit_identical(self, data, tmp_path):
        path = tmp_path / "seq.npz"
        full = GibbsSampler(FULL).run(data.split.train, data.split, seed=5)
        _train_with_checkpoint(GibbsSampler, SamplerOptions(), data, path)
        resumed = GibbsSampler(FULL).run(data.split.train, data.split,
                                         resume=path)
        np.testing.assert_array_equal(resumed.state.user_factors,
                                      full.state.user_factors)
        np.testing.assert_array_equal(resumed.state.movie_factors,
                                      full.state.movie_factors)
        assert resumed.rmse_burn_in == full.rmse_burn_in
        assert resumed.rmse_per_sample == full.rmse_per_sample
        assert resumed.rmse_running_mean == full.rmse_running_mean
        assert resumed.items_updated == full.items_updated
        np.testing.assert_array_equal(resumed.predictions, full.predictions)
        np.testing.assert_array_equal(resumed.factor_means.user_sum,
                                      full.factor_means.user_sum)

    def test_multicore_resume_matches_sequential_chain(self, data, tmp_path):
        """A sequential checkpoint resumed on 2 threads: same chain."""
        path = tmp_path / "mc.npz"
        full = GibbsSampler(FULL).run(data.split.train, data.split, seed=5)
        _train_with_checkpoint(GibbsSampler, SamplerOptions(), data, path)
        resumed = GibbsSampler(FULL, SamplerOptions(n_workers=2)).run(
            data.split.train, data.split, resume=path)
        np.testing.assert_array_equal(resumed.state.user_factors,
                                      full.state.user_factors)
        np.testing.assert_array_equal(resumed.state.movie_factors,
                                      full.state.movie_factors)
        assert resumed.rmse_burn_in == full.rmse_burn_in
        assert resumed.rmse_running_mean == full.rmse_running_mean
        np.testing.assert_array_equal(resumed.predictions, full.predictions)

    def test_multicore_checkpoint_resumes(self, data, tmp_path):
        path = tmp_path / "mc2.npz"
        full = GibbsSampler(FULL, SamplerOptions(n_workers=2)).run(
            data.split.train, data.split, seed=5)
        _train_with_checkpoint(GibbsSampler, SamplerOptions(n_workers=2),
                               data, path)
        resumed = GibbsSampler(FULL, SamplerOptions(n_workers=2)).run(
            data.split.train, data.split, resume=path)
        np.testing.assert_array_equal(resumed.state.user_factors,
                                      full.state.user_factors)
        np.testing.assert_array_equal(resumed.state.movie_factors,
                                      full.state.movie_factors)
        assert resumed.rmse_running_mean == full.rmse_running_mean

    def test_distributed_resume_is_bit_identical(self, data, tmp_path):
        path = tmp_path / "dist.npz"
        options = DistributedOptions(n_ranks=3)
        full, _ = DistributedGibbsSampler(FULL, options).run(
            data.split.train, data.split, seed=5)
        DistributedGibbsSampler(HALF, DistributedOptions(
            n_ranks=3, checkpoint=CheckpointConfig(path=path))).run(
            data.split.train, data.split, seed=5)
        resumed, _ = DistributedGibbsSampler(FULL, DistributedOptions(
            n_ranks=3)).run(data.split.train, data.split, resume=path)
        np.testing.assert_array_equal(resumed.state.user_factors,
                                      full.state.user_factors)
        np.testing.assert_array_equal(resumed.state.movie_factors,
                                      full.state.movie_factors)
        assert resumed.rmse_running_mean == full.rmse_running_mean

    def test_save_every_k_writes_at_k_and_final(self, data, tmp_path):
        path = tmp_path / "every.npz"
        saved_iterations = []
        real_due = CheckpointConfig.due

        options = SamplerOptions(checkpoint=CheckpointConfig(path=path, every=2))
        GibbsSampler(FULL, options).run(data.split.train, data.split, seed=5)
        # FULL has 6 sweeps; every=2 saves after sweeps 2, 4, 6 (1-based).
        assert load_snapshot(path).state.iteration == FULL.total_iterations
        for iteration in range(FULL.total_iterations):
            if real_due(options.checkpoint, iteration, FULL.total_iterations):
                saved_iterations.append(iteration + 1)
        assert saved_iterations == [2, 4, 6]

    def test_resume_and_state_are_mutually_exclusive(self, data, tmp_path):
        path = tmp_path / "x.npz"
        result = _train_with_checkpoint(GibbsSampler, SamplerOptions(),
                                        data, path)
        with pytest.raises(ValidationError, match="not both"):
            GibbsSampler(FULL).run(data.split.train, data.split,
                                   state=result.state, resume=path)

    def test_resume_beyond_configured_total_rejected(self, data, tmp_path):
        path = tmp_path / "long.npz"
        _train_with_checkpoint(GibbsSampler, SamplerOptions(), data, path)
        short = BPMFConfig(num_latent=6, alpha=4.0, burn_in=1, n_samples=1)
        with pytest.raises(ValidationError, match="beyond"):
            GibbsSampler(short).run(data.split.train, data.split, resume=path)

    def test_resume_with_mismatched_model_config_rejected(self, data, tmp_path):
        path = tmp_path / "mismatch.npz"
        _train_with_checkpoint(GibbsSampler, SamplerOptions(), data, path)
        other_alpha = BPMFConfig(num_latent=6, alpha=8.0, burn_in=2, n_samples=4)
        with pytest.raises(ValidationError, match="alpha"):
            GibbsSampler(other_alpha).run(data.split.train, data.split,
                                          resume=path)
        other_burn = BPMFConfig(num_latent=6, alpha=4.0, burn_in=3, n_samples=3)
        with pytest.raises(ValidationError, match="burn_in"):
            GibbsSampler(other_burn).run(data.split.train, data.split,
                                         resume=path)

    def test_snapshot_from_result_resumes_the_prediction_mean(self, data,
                                                              tmp_path):
        """The reconstructed accumulator continues the running-mean trace."""
        path = tmp_path / "from-result.npz"
        rng = np.random.default_rng(5)
        full = GibbsSampler(FULL).run(data.split.train, data.split, seed=5)
        run_rng = np.random.default_rng(5)
        half = GibbsSampler(HALF).run(data.split.train, data.split,
                                      seed=run_rng)
        save_snapshot(snapshot_from_result(half, rng=run_rng), path)
        resumed = GibbsSampler(FULL).run(data.split.train, data.split,
                                         resume=path)
        np.testing.assert_array_equal(resumed.state.user_factors,
                                      full.state.user_factors)
        np.testing.assert_allclose(resumed.predictions, full.predictions,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(resumed.rmse_running_mean,
                                   full.rmse_running_mean, rtol=1e-12)
        del rng

    def test_stale_tmp_file_cannot_clobber_a_fresh_save(self, data, tmp_path):
        """A leftover .tmp from a killed process never becomes the snapshot."""
        path = tmp_path / "clobber.npz"
        stale = path.with_name(path.name + ".tmp.npz")
        stale.write_bytes(b"garbage from a crashed process")
        result = GibbsSampler(HALF).run(data.split.train, data.split, seed=1)
        save_snapshot(snapshot_from_result(result), path)
        assert load_snapshot(path).state.n_users == 50  # fresh data won
        assert not stale.exists()

    def test_resume_from_final_snapshot_is_a_noop_run(self, data, tmp_path):
        path = tmp_path / "final.npz"
        options = SamplerOptions(checkpoint=CheckpointConfig(path=path))
        full = GibbsSampler(FULL, options).run(data.split.train, data.split,
                                               seed=5)
        resumed = GibbsSampler(FULL).run(data.split.train, data.split,
                                         resume=path)
        assert resumed.state.iteration == full.state.iteration
        np.testing.assert_array_equal(resumed.predictions, full.predictions)

    def test_format_tag_is_versioned(self):
        assert SNAPSHOT_FORMAT == "repro-snapshot-v1"
