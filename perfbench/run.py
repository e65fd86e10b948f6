"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``train-1p``, ``train-2rank``, ``serve-read`` and
``serve-write`` (see README.md and ``BENCHMARK.json``).
``--trace 0`` measures the end-to-end metrics with nothing added to the
program; ``--trace 1`` measures again with the per-layer timers
installed and reports the per-layer table.  The report goes to stdout;
its last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 when every output check passed, 1 when
one failed and 2 when the benchmark could not run (no program sources,
bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from common import BenchError, Outcome, environment_block, program_src, \
    summary
from metrics import END_TO_END, MEANING, MISSING, PER_LAYER, \
    TRAINING_WORKLOADS, WORKLOADS


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> Outcome:
    if workload.startswith("train"):
        import bench_train as module
    else:
        import bench_serve as module
    return module.run(workload, seed, seconds, trace, size)


def result_line(outcome: Outcome, trace: bool) -> dict:
    """The JSON object the last line of stdout carries."""
    if trace:
        metrics = {name: {"value": float(outcome.per_layer.get(name, 0.0)),
                          "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(summary(
            outcome.end_to_end[name])["median"]), "unit": unit}
            for name, (unit, _) in END_TO_END.items()}
    return {"correct": outcome.correct, "attempted": int(outcome.attempted),
            "failed": int(outcome.failed), "metrics": metrics}


def print_report(outcome: Outcome, env: dict, trace: bool) -> None:
    print(f"== {outcome.workload}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"{'end-to-end metric':<22}{'unit':<7}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'n':>7}  as")
    for name, values in outcome.end_to_end.items():
        stats = summary(values)
        if name in END_TO_END:
            unit, meaning = END_TO_END[name][0], "gated"
            meaning = MEANING.get(name, {}).get(outcome.workload, meaning)
        else:
            unit, meaning = PER_LAYER[name], "reported, not gated"
        print(f"{name:<22}{unit:<7}{stats['median']:>12.4f}"
              f"{stats['q1']:>12.4f}{stats['q3']:>12.4f}{stats['n']:>7}"
              f"  {meaning}")
    attempted = max(outcome.attempted, 1)
    print(f"{'failed_ratio':<22}{'ratio':<7}"
          f"{outcome.failed / attempted:>12.4f}  "
          f"({outcome.failed} of {outcome.attempted} attempted)")
    for name, value in outcome.notes.items():
        print(f"note {name}: {value}")
    if trace:
        print(f"{'per-layer metric':<28}{'unit':<10}{'value':>14}")
        for name, unit in PER_LAYER.items():
            if name in outcome.per_layer:
                print(f"{name:<28}{unit:<10}{outcome.per_layer[name]:>14.4f}")
            else:
                print(f"{name:<28}{unit:<10}{'idle':>14}  "
                      f"(layer not used by {outcome.workload}; reported 0)")
        if outcome.workload not in TRAINING_WORKLOADS:
            for name, reason in MISSING.items():
                print(f"{name:<28}{'':<10}{'missing':>14}  ({reason})")
        print("sum check: " + json.dumps(outcome.sum_check, sort_keys=True))
    for name, ok in outcome.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        sys.path.insert(0, str(program_src()))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    env = environment_block()
    started = time.perf_counter()
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    env["loadavg_1m_end"] = round(os.getloadavg()[0], 2)
    env["run_s"] = round(time.perf_counter() - started, 2)
    print_report(outcome, env, bool(args.trace))
    print(json.dumps(result_line(outcome, bool(args.trace))), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
