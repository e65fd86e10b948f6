"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` lists the same workloads and metrics; ``selftest.py``
checks that the two agree.  Every run reports every end-to-end metric
(``--trace 0``) or every per-layer metric (``--trace 1``), whatever its
workload, so each end-to-end metric has a meaning on every workload
(:data:`MEANING`).  A layer a workload does not use reports 0.
"""

from __future__ import annotations

from typing import Dict, Tuple

WORKLOADS = ("train-1p", "train-2rank", "serve-read", "serve-write")
TRAINING_WORKLOADS = ("train-1p", "train-2rank")

#: name -> (unit, better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
}

#: What each end-to-end metric measures on each workload, under the
#: name a reader of the paper or of the serving code would use.
MEANING: Dict[str, Dict[str, str]] = {
    "throughput_per_s": {
        "train-1p": "train_items_per_s: item updates per second",
        "train-2rank": "train_items_per_s: item updates per second",
        "serve-read": "read_sat_qps: closed-loop reads per second",
        "serve-write": "mixed_sat_qps: closed-loop reads+writes per second",
    },
    "op_p50_ms": {
        "train-1p": "sweep_ms: wall time of one sweep",
        "train-2rank": "sweep_ms: wall time of one sweep",
        "serve-read": "read_p50_ms: open-loop read latency from due time",
        "serve-write": "write_p50_ms: open-loop acked-write latency from "
                       "due time",
    },
}

#: name -> unit.  Training layers are per sweep (mean over ranks unless
#: README.md says otherwise); the last five are end-to-end figures too
#: noisy (p99) or too workload-specific to gate, reported from the
#: traced run.
PER_LAYER: Dict[str, str] = {
    "core.engine.movies_ms": "ms",
    "core.engine.users_ms": "ms",
    "core.engine.gflops": "GFLOP/s",
    "sparse.buckets.n": "count",
    "core.wishart.ms": "ms",
    "core.eval.ms": "ms",
    "sweep.other_ms": "ms",
    "sweep.wall_ms": "ms",
    "mpi.send_ms": "ms",
    "mpi.wait_ms": "ms",
    "mpi.coll_ms": "ms",
    "mpi.mb": "MB",
    "mpi.msgs": "count",
    "mpi.buffer_fill": "ratio",
    "rank.busy_share": "ratio",
    "rank.imbalance": "ratio",
    "setup.plan_ms": "ms",
    "setup.partition_ms": "ms",
    "setup.connect_ms": "ms",
    "client.encode_us": "us",
    "client.decode_us": "us",
    "service.topn_us": "us",
    "server.queue_wait_ms.p50": "ms",
    "server.queue_wait_ms.p99": "ms",
    "fusion.batch": "requests",
    "fusion.dedup_share": "ratio",
    "service.cache_hit_ratio": "ratio",
    "read.unattributed_ms": "ms",
    "wal.fsync_ms.p50": "ms",
    "wal.fsync_ms.p99": "ms",
    "wal.forwarded_share": "ratio",
    "gen.late_ms_p99": "ms",
    "gen.late_n": "count",
    "obs.trace_overhead": "ratio",
    "final_rmse": "rmse",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
}

#: Measured by nothing the program exposes; printed as missing.
MISSING = {
    "server.execute_ms": "the fused read path never records the server's "
                         "execute histogram (count stays 0)",
}
