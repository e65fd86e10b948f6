"""Per-layer timers for the traced run.

The program is not changed: a :class:`LayerClock` replaces a public
function or method of one layer with a wrapper that adds its wall time
to that layer's total, and restores the original on :meth:`uninstall`.
Only the outermost timed call on a thread counts, so a layer that calls
another (a collective that receives, say) is never counted twice and the
layers plus the untimed residual add up to the wall time around them.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple, Union

LayerName = Union[str, Callable[..., str]]


class LayerClock:
    """Busy time per layer name."""

    def __init__(self):
        self.totals: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, layer: LayerName) -> None:
        """Time every call of ``owner.attr`` under ``layer`` (a name, or a
        function of the call's arguments that returns one)."""
        original = getattr(owner, attr)
        clock = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            local = clock._local
            if getattr(local, "active", False):
                return original(*args, **kwargs)
            name = layer if isinstance(layer, str) else layer(*args,
                                                              **kwargs)
            local.active = True
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                clock.totals[name] += time.perf_counter() - start
                local.active = False

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> Dict[str, float]:
        """Seconds per layer so far."""
        return dict(self.totals)


def install_training_layers(clock: LayerClock, movie_axis) -> None:
    """Wrap the layers one training sweep passes through.

    ``movie_axis`` tells the two engine phases apart: the engine is
    called once per phase with the axis it updates.
    """
    from repro.core import batch_engine, gibbs, predict, state
    from repro.distributed import spmd
    from repro.mpi.net import world

    def engine_phase(engine, target, source, axis, *args, **kwargs) -> str:
        return "core.engine.movies" if axis is movie_axis \
            else "core.engine.users"

    clock.wrap(batch_engine.BatchedUpdateEngine, "update_items",
               engine_phase)
    # Hyperprior draws: the sequential sampler's call, and the SPMD
    # loop's posterior (from gathered rows or allreduced statistics)
    # plus its draw.  The allreduce itself is an MPI collective.
    clock.wrap(gibbs, "sample_hyperparameters", "core.wishart")
    for name in ("normal_wishart_posterior",
                 "normal_wishart_posterior_from_stats",
                 "sample_normal_wishart"):
        clock.wrap(spmd, name, "core.wishart")
    # Evaluation: prediction of the test cells, the posterior-mean
    # accumulator and the RMSE, in either sampler.
    clock.wrap(state.BPMFState, "predict", "core.eval")
    clock.wrap(predict.PosteriorPredictor, "accumulate", "core.eval")
    clock.wrap(predict.PosteriorPredictor, "mean_prediction", "core.eval")
    clock.wrap(gibbs, "rmse", "core.eval")
    clock.wrap(spmd, "rmse", "core.eval")
    for verb in ("isend", "send"):
        clock.wrap(world.SocketComm, verb, "mpi.send")
    for verb in ("recv", "iprobe", "drain"):
        clock.wrap(world.SocketComm, verb, "mpi.wait")
    clock.wrap(world.SocketRequest, "wait", "mpi.wait")
    for verb in ("allreduce", "fetch_allreduce", "bcast", "barrier"):
        clock.wrap(world.SocketComm, verb, "mpi.coll")


#: Per-sweep layers of a training run, in report order.
TRAINING_LAYERS = ("core.engine.movies", "core.engine.users", "core.wishart",
                   "core.eval", "mpi.send", "mpi.wait", "mpi.coll")


def item_flops(degree: int, num_latent: int) -> float:
    """Floating-point operations the batched kernel executes for one item.

    Counted from the kernel's own calls: the Gram product ``X^T X``
    (``2 d K^2``), the right-hand side ``X^T r`` (``2 d K``), one Cholesky
    (``K^3 / 3``) and two general solves against the factor
    (``2 K^3 / 3 + 2 K^2`` each, as LAPACK ``gesv`` does them).
    """
    k = float(num_latent)
    d = float(degree)
    return 2 * d * k * k + 2 * d * k + k ** 3 / 3 + 2 * (2 * k ** 3 / 3
                                                         + 2 * k * k)


def plan_flops(plan, num_latent: int) -> float:
    """Computed flops of one phase from its bucket plan."""
    return sum(bucket.n_items * item_flops(bucket.degree, num_latent)
               for bucket in plan.buckets)
