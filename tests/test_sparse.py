"""Unit tests for the sparse rating-matrix substrate (COO, CSR/CSC views)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CompressedAxis, RatingMatrix
from repro.utils.validation import ValidationError


class TestCooConstruction:
    def test_empty(self):
        coo = CooMatrix.empty(5, 4)
        assert coo.nnz == 0
        assert coo.shape == (5, 4)
        assert coo.density == 0.0

    def test_from_triplets(self):
        coo = CooMatrix.from_triplets(3, 3, [(0, 1, 2.0), (2, 0, 1.0)])
        assert coo.nnz == 2
        assert coo.rows.dtype == np.int64
        assert coo.values.dtype == np.float64

    def test_from_triplets_empty_iterable(self):
        coo = CooMatrix.from_triplets(3, 3, [])
        assert coo.nnz == 0

    def test_from_arrays_validates_alignment(self):
        with pytest.raises(ValidationError):
            CooMatrix.from_arrays(3, 3, [0, 1], [0], [1.0, 2.0])

    def test_from_arrays_copies_input(self):
        rows = np.array([0, 1])
        coo = CooMatrix.from_arrays(3, 3, rows, [0, 1], [1.0, 2.0])
        rows[0] = 2
        assert coo.rows[0] == 0

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            CooMatrix.empty(-1, 3)

    def test_zero_dimensions_allowed(self):
        assert CooMatrix.empty(0, 3).nnz == 0

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValidationError):
            CooMatrix.from_arrays(2, 2, [0, 2], [0, 1], [1.0, 1.0])
        with pytest.raises(ValidationError):
            CooMatrix.from_arrays(2, 2, [0, 1], [0, -1], [1.0, 1.0])

    def test_nan_values_rejected(self):
        with pytest.raises(ValidationError):
            CooMatrix.from_arrays(2, 2, [0], [0], [np.nan])


class TestCooOperations:
    def test_append_chains_and_grows(self):
        coo = CooMatrix.empty(4, 4)
        coo.append(0, 1, 5.0).append([1, 2], [2, 3], [1.0, 2.0])
        assert coo.nnz == 3

    def test_append_misaligned(self):
        with pytest.raises(ValidationError):
            CooMatrix.empty(4, 4).append([0, 1], [1], [1.0, 2.0])

    def test_deduplicate_last_wins(self):
        coo = CooMatrix.from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 9.0), (0, 0, 3.0)])
        dedup = coo.deduplicate()
        assert dedup.nnz == 2
        dense = dedup.to_dense()
        assert dense[0, 0] == 3.0
        assert dense[0, 1] == 9.0

    def test_deduplicate_empty(self):
        assert CooMatrix.empty(2, 2).deduplicate().nnz == 0

    def test_to_dense_nan_for_missing(self):
        coo = CooMatrix.from_triplets(2, 2, [(0, 0, 1.0)])
        dense = coo.to_dense()
        assert dense[0, 0] == 1.0
        assert np.isnan(dense[1, 1])

    def test_transpose(self):
        coo = CooMatrix.from_triplets(2, 3, [(0, 2, 7.0)])
        transposed = coo.transpose()
        assert transposed.shape == (3, 2)
        assert transposed.rows[0] == 2 and transposed.cols[0] == 0

    def test_copy_is_independent(self):
        coo = CooMatrix.from_triplets(2, 2, [(0, 0, 1.0)])
        copy = coo.copy()
        copy.values[0] = 99.0
        assert coo.values[0] == 1.0

    def test_density(self):
        coo = CooMatrix.from_triplets(2, 2, [(0, 0, 1.0)])
        assert coo.density == pytest.approx(0.25)


class TestCompressedAxis:
    def test_invariants_enforced(self):
        with pytest.raises(ValidationError):
            CompressedAxis(indptr=np.array([0, 2, 1]), indices=np.array([0, 1]),
                           values=np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            CompressedAxis(indptr=np.array([1, 2]), indices=np.array([0]),
                           values=np.array([1.0]))
        with pytest.raises(ValidationError):
            CompressedAxis(indptr=np.array([0, 1]), indices=np.array([0]),
                           values=np.array([1.0, 2.0]))

    def test_empty_indptr_rejected(self):
        """Length-0 indptr must raise ValidationError, not IndexError."""
        with pytest.raises(ValidationError):
            CompressedAxis(indptr=np.empty(0, dtype=np.int64),
                           indices=np.empty(0, dtype=np.int64),
                           values=np.empty(0))

    def test_minimal_indptr_is_an_empty_axis(self):
        """indptr == [0] is the valid empty axis (n == 0, nnz == 0)."""
        axis = CompressedAxis(indptr=np.zeros(1, dtype=np.int64),
                              indices=np.empty(0, dtype=np.int64),
                              values=np.empty(0))
        assert axis.n == 0
        assert axis.nnz == 0

    def test_degree_and_slice(self, simple_ratings):
        axis = simple_ratings.by_user
        assert axis.n == 4
        assert axis.degree(0) == 2
        movies, values = axis.slice(0)
        assert set(movies.tolist()) == {0, 1}
        assert set(values.tolist()) == {5.0, 3.0}

    def test_iter_nonempty(self):
        matrix = RatingMatrix.from_arrays(3, 2, [0, 2], [0, 1], [1.0, 2.0])
        assert list(matrix.by_user.iter_nonempty()) == [0, 2]


class TestRatingMatrix:
    def test_shape_and_nnz(self, simple_ratings):
        assert simple_ratings.shape == (4, 3)
        assert simple_ratings.nnz == 8
        assert simple_ratings.density == pytest.approx(8 / 12)

    def test_user_and_movie_views_are_consistent(self, simple_ratings):
        # Every (user, movie, value) triplet must appear in both views.
        users, movies, values = simple_ratings.triplets()
        for u, m, v in zip(users, movies, values):
            movie_users, movie_values = simple_ratings.movie_ratings(int(m))
            position = np.nonzero(movie_users == u)[0]
            assert position.shape[0] == 1
            assert movie_values[position[0]] == v

    def test_degrees(self, simple_ratings):
        np.testing.assert_array_equal(simple_ratings.user_degrees(), [2, 2, 2, 2])
        np.testing.assert_array_equal(simple_ratings.movie_degrees(), [3, 3, 2])

    def test_mean_rating(self, simple_ratings):
        expected = (5.0 + 3.0 + 4.0 + 1.0 + 2.0 + 4.5 + 1.0 + 1.5) / 8
        assert simple_ratings.mean_rating() == pytest.approx(expected)

    def test_mean_rating_empty(self):
        empty = RatingMatrix.from_arrays(2, 2, [], [], [])
        assert empty.mean_rating() == 0.0

    def test_from_dense_roundtrip(self, simple_ratings):
        dense = simple_ratings.to_dense()
        rebuilt = RatingMatrix.from_dense(dense)
        np.testing.assert_allclose(rebuilt.to_dense(), dense)

    def test_to_scipy_csr(self, simple_ratings):
        sparse = simple_ratings.to_scipy_csr()
        assert sparse.shape == (4, 3)
        assert sparse.nnz == 8
        assert sparse[0, 0] == 5.0

    def test_transpose_swaps_views(self, simple_ratings):
        transposed = simple_ratings.transpose()
        assert transposed.shape == (3, 4)
        np.testing.assert_array_equal(transposed.user_degrees(),
                                      simple_ratings.movie_degrees())

    def test_duplicate_entries_deduplicated_on_build(self):
        coo = CooMatrix.from_triplets(2, 2, [(0, 0, 1.0), (0, 0, 4.0)])
        matrix = RatingMatrix.from_coo(coo)
        assert matrix.nnz == 1
        _, values = matrix.user_ratings(0)
        assert values[0] == 4.0

    def test_shape_mismatch_between_views_rejected(self):
        good = RatingMatrix.from_arrays(2, 2, [0], [1], [1.0])
        with pytest.raises(ValidationError):
            RatingMatrix(3, 2, good.by_user, good.by_movie)


class TestRatingMatrixPermute:
    def test_permutation_preserves_ratings(self, simple_ratings):
        user_perm = np.array([3, 2, 1, 0])
        movie_perm = np.array([1, 2, 0])
        permuted = simple_ratings.permute(user_perm, movie_perm)
        assert permuted.nnz == simple_ratings.nnz
        # Rating (0, 0, 5.0) must now live at (3, 1).
        movies, values = permuted.user_ratings(3)
        assert 5.0 in values
        assert movies[values.tolist().index(5.0)] == 1

    def test_identity_permutation_is_noop(self, simple_ratings):
        permuted = simple_ratings.permute(np.arange(4), np.arange(3))
        np.testing.assert_allclose(np.nan_to_num(permuted.to_dense()),
                                   np.nan_to_num(simple_ratings.to_dense()))

    def test_invalid_permutation_rejected(self, simple_ratings):
        with pytest.raises(ValidationError):
            simple_ratings.permute(user_perm=np.array([0, 0, 1, 2]))
        with pytest.raises(ValidationError):
            simple_ratings.permute(movie_perm=np.array([0, 1]))

    def test_select_users(self, simple_ratings):
        subset = simple_ratings.select_users(np.array([2, 0]))
        assert subset.shape == (2, 3)
        movies, values = subset.user_ratings(0)  # old user 2
        assert set(movies.tolist()) == {1, 2}
        assert 4.5 in values

    def test_select_users_empty(self, simple_ratings):
        subset = simple_ratings.select_users(np.array([], dtype=int))
        assert subset.shape == (0, 3)
        assert subset.nnz == 0

    def test_triplets_roundtrip(self, simple_ratings):
        users, movies, values = simple_ratings.triplets()
        rebuilt = RatingMatrix.from_arrays(4, 3, users, movies, values)
        np.testing.assert_allclose(np.nan_to_num(rebuilt.to_dense()),
                                   np.nan_to_num(simple_ratings.to_dense()))


class TestBucketPlanCacheThreads:
    def test_concurrent_lookups_survive_lru_eviction(self, monkeypatch):
        """Rank threads share the plan cache: a lookup's recency refresh
        must never race another thread's eviction of the same key."""
        import sys
        import threading

        from repro.sparse import buckets

        rng = np.random.default_rng(0)
        dense = np.where(rng.random((30, 12)) < 0.4,
                         rng.normal(size=(30, 12)), np.nan)
        axis = RatingMatrix.from_dense(dense).by_user
        subsets = [np.arange(start, start + 3) for start in range(0, 24, 3)]
        buckets.clear_plan_cache()
        # A cache smaller than the working set evicts on almost every miss.
        monkeypatch.setattr(buckets, "MAX_CACHED_PLANS", 2)
        errors = []

        def hammer(seed: int) -> None:
            picks = np.random.default_rng(seed).integers(len(subsets),
                                                         size=1500)
            try:
                for pick in picks:
                    plan = buckets.cached_bucket_plan(axis, subsets[pick])
                    assert plan.n_planned_items == 3
            except BaseException as error:  # reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads aggressively
        try:
            threads = [threading.Thread(target=hammer, args=(seed,))
                       for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            buckets.clear_plan_cache()
        assert not errors, errors[:1]
        assert all(not thread.is_alive() for thread in threads)
