"""High-level estimator facade (``fit`` / ``predict`` / ``recommend``).

The sampler classes expose every knob of the reproduction; most downstream
users just want "train a recommender on this sparse matrix".  :class:`BPMF`
wraps the samplers behind an estimator-style interface and takes care of
the practical details that otherwise trip users up:

* centring the ratings on the training mean (the factor priors are
  zero-mean, so uncentred 1–5-star or pIC50 data converges slowly);
* choosing the execution backend (sequential / multicore / distributed /
  side-information) from a single ``backend=`` argument;
* adding the mean back and optionally clipping to the rating scale at
  prediction time;
* exposing top-N recommendation directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.gibbs import BPMFResult, GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.core.recommend import Recommendation, recommend_for_user
from repro.core.sideinfo import MacauGibbsSampler, SideInfo
from repro.core.state import BPMFState
from repro.distributed.sampler import DistributedGibbsSampler, DistributedOptions
from repro.sparse.csr import RatingMatrix
from repro.sparse.split import RatingSplit
from repro.utils.rng import SeedLike
from repro.utils.validation import ValidationError, check_in

__all__ = ["BPMF"]

_BACKENDS = ("sequential", "multicore", "distributed", "sideinfo")


@dataclass
class BPMF:
    """Estimator-style interface to the BPMF samplers.

    Parameters
    ----------
    num_latent, alpha, burn_in, n_samples:
        Forwarded to :class:`~repro.core.priors.BPMFConfig`.
    backend:
        ``"sequential"`` (default), ``"multicore"``, ``"distributed"`` or
        ``"sideinfo"`` (requires ``user_side`` and/or ``movie_side``).
    center:
        Subtract the training mean before sampling and add it back at
        prediction time (recommended for star-rating / pIC50 data).
    clip:
        Optional ``(low, high)`` range applied to predictions, e.g.
        ``(0.5, 5.0)`` for MovieLens stars.
    n_threads, n_ranks:
        Backend-specific parallelism knobs: ``"multicore"`` is the
        :class:`~repro.core.gibbs.GibbsSampler` with ``n_threads`` worker
        threads (``SamplerOptions(n_workers=n_threads)``).
    user_side, movie_side:
        :class:`~repro.core.sideinfo.SideInfo` for the ``"sideinfo"`` backend.

    Example
    -------
    >>> from repro.core.model import BPMF
    >>> from repro.datasets import make_low_rank_dataset
    >>> data = make_low_rank_dataset(n_users=60, n_movies=40, density=0.3, seed=0)
    >>> model = BPMF(num_latent=4, burn_in=2, n_samples=4).fit(
    ...     data.split.train, data.split, seed=0)
    >>> predictions = model.predict(data.split.test_users, data.split.test_movies)
    >>> predictions.shape == data.split.test_values.shape
    True
    """

    num_latent: int = 16
    alpha: float = 2.0
    burn_in: int = 10
    n_samples: int = 40
    backend: str = "sequential"
    center: bool = True
    clip: Optional[Tuple[float, float]] = None
    n_threads: int = 1
    n_ranks: int = 4
    user_side: Optional[SideInfo] = None
    movie_side: Optional[SideInfo] = None
    config_overrides: Dict = field(default_factory=dict)

    def __post_init__(self):
        check_in("backend", self.backend, _BACKENDS)
        if self.backend == "sideinfo" and self.user_side is None \
                and self.movie_side is None:
            raise ValidationError(
                "backend='sideinfo' requires user_side and/or movie_side")
        self._result: Optional[BPMFResult] = None
        self._offset: float = 0.0
        self._train: Optional[RatingMatrix] = None

    # -- fitting -------------------------------------------------------------

    def _make_config(self) -> BPMFConfig:
        return BPMFConfig(num_latent=self.num_latent, alpha=self.alpha,
                          burn_in=self.burn_in, n_samples=self.n_samples,
                          **self.config_overrides)

    def _centred(self, train: RatingMatrix,
                 split: Optional[RatingSplit]) -> Tuple[RatingMatrix,
                                                        Optional[RatingSplit]]:
        if not self.center or train.nnz == 0:
            self._offset = 0.0
            return train, split
        self._offset = train.mean_rating()
        users, movies, values = train.triplets()
        centred_train = RatingMatrix.from_arrays(
            train.n_users, train.n_movies, users, movies, values - self._offset)
        centred_split = None
        if split is not None:
            centred_split = RatingSplit(
                train=centred_train,
                test_users=split.test_users,
                test_movies=split.test_movies,
                test_values=split.test_values - self._offset,
            )
        return centred_train, centred_split

    def fit(self, train: RatingMatrix, split: Optional[RatingSplit] = None,
            seed: SeedLike = 0) -> "BPMF":
        """Run the configured sampler on ``train``; returns ``self``."""
        config = self._make_config()
        centred_train, centred_split = self._centred(train, split)
        self._train = train

        if self.backend in ("sequential", "multicore"):
            n_workers = self.n_threads if self.backend == "multicore" else None
            result = GibbsSampler(
                config, SamplerOptions(n_workers=n_workers)
            ).run(centred_train, centred_split, seed=seed)
        elif self.backend == "distributed":
            result, _ = DistributedGibbsSampler(
                config, DistributedOptions(n_ranks=self.n_ranks)
            ).run(centred_train, centred_split, seed=seed)
        else:  # sideinfo
            result = MacauGibbsSampler(
                config, SamplerOptions(), user_side=self.user_side,
                movie_side=self.movie_side
            ).run(centred_train, centred_split, seed=seed)
        self._result = result
        return self

    # -- inspection ------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._result is not None

    def _require_fitted(self) -> BPMFResult:
        if self._result is None:
            raise ValidationError("model is not fitted yet; call fit() first")
        return self._result

    @property
    def result(self) -> BPMFResult:
        """The underlying sampler result (traces, final state)."""
        return self._require_fitted()

    @property
    def state(self) -> BPMFState:
        """The last Gibbs sample's factor matrices."""
        return self._require_fitted().state

    @property
    def offset(self) -> float:
        """The training mean subtracted before sampling (0 when center=False)."""
        self._require_fitted()
        return self._offset

    @property
    def test_rmse(self) -> float:
        """Posterior-mean RMSE on the held-out split passed to :meth:`fit`."""
        return self._require_fitted().final_rmse

    # -- prediction ------------------------------------------------------------

    def predict(self, users: np.ndarray, movies: np.ndarray) -> np.ndarray:
        """Predicted ratings (mean-restored, optionally clipped) for index pairs."""
        result = self._require_fitted()
        predictions = result.state.predict(users, movies) + self._offset
        if self.clip is not None:
            predictions = np.clip(predictions, self.clip[0], self.clip[1])
        return predictions

    def predict_matrix(self, users: Sequence[int],
                       movies: Sequence[int]) -> np.ndarray:
        """Dense prediction block for the cross product of users x movies."""
        users = np.asarray(users, dtype=np.int64)
        movies = np.asarray(movies, dtype=np.int64)
        grid_users = np.repeat(users, movies.shape[0])
        grid_movies = np.tile(movies, users.shape[0])
        return self.predict(grid_users, grid_movies).reshape(users.shape[0],
                                                             movies.shape[0])

    def recommend(self, user: int, n: int = 10,
                  exclude_rated: bool = True) -> Recommendation:
        """Top-``n`` unseen movies for ``user`` by predicted rating."""
        result = self._require_fitted()
        exclude = self._train if exclude_rated else None
        recommendation = recommend_for_user(result.state, user, n=n,
                                            exclude=exclude, offset=self._offset)
        if self.clip is not None:
            clipped = np.clip(recommendation.scores, self.clip[0], self.clip[1])
            recommendation = Recommendation(user=recommendation.user,
                                            items=recommendation.items,
                                            scores=clipped)
        return recommendation
