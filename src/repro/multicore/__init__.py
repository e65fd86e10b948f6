"""Multi-core BPMF performance study (Section III, Figure 3 of the paper).

The threaded sampler itself is :class:`repro.core.gibbs.GibbsSampler`
with ``SamplerOptions(n_workers=k)``: each phase's independent item
updates run on ``k`` real threads and reproduce the sequential chain bit
for bit.  This package holds the Figure 3 study around it:

* :mod:`repro.multicore.tasks` — one sweep's per-item tasks, each costed
  from its degree;
* :mod:`repro.multicore.sweep` — those task sets placed on the simulated
  multicore machine by the work-stealing (TBB-like), static (OpenMP-like)
  and vertex-engine (GraphLab-like) schedulers, regenerating Figure 3's
  throughput-vs-threads curves.
"""

from repro.multicore.tasks import phase_tasks, sweep_tasks
from repro.multicore.sweep import (
    ThreadSweepResult,
    multicore_thread_sweep,
    default_schedulers,
)

__all__ = [
    "phase_tasks",
    "sweep_tasks",
    "ThreadSweepResult",
    "multicore_thread_sweep",
    "default_schedulers",
]
