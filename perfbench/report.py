"""Run every workload and print every metric.

    python3 perfbench/report.py [--repeats 10] [--seconds 10] [--seed 1]
                                [--workload NAME ...]

For each workload: ``--repeats`` plain runs with seeds ``seed``,
``seed+1``, ... give each end-to-end metric's median, quartiles, sample
count and spread (the quartile distance as a share of the median); one
more run with ``--trace 1`` prints the per-layer table with its sum
check.  Each run is ``run.py`` in its own process, invoked exactly as
the command in ``BENCHMARK.json``.  Exits non-zero when any run fails an
output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT, summary
from metrics import END_TO_END, WORKLOADS


def one_run(workload: str, seed: int, seconds: float, trace: int):
    """Run ``run.py`` once; returns (stdout lines, parsed last line, exit)."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
    return lines, result, done.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", choices=WORKLOADS,
                        default=list(WORKLOADS))
    args = parser.parse_args(argv)

    failures = 0
    for workload in args.workload:
        values = {name: [] for name in END_TO_END}
        started = time.perf_counter()
        for index in range(args.repeats):
            _, result, code = one_run(workload, args.seed + index,
                                      args.seconds, 0)
            if result is None or code != 0 or not result["correct"]:
                failures += 1
                print(f"{workload} seed {args.seed + index}: FAILED "
                      f"(exit {code})")
                continue
            for name in END_TO_END:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}: {args.repeats} plain runs "
              f"({time.perf_counter() - started:.0f} s)")
        print(f"{'metric':<18}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'n':>4}{'spread':>9}")
        for name, (unit, _) in END_TO_END.items():
            if not values[name]:
                continue
            stats = summary(values[name])
            print(f"{name:<18}{unit:<6}{stats['median']:>12.4f}"
                  f"{stats['q1']:>12.4f}{stats['q3']:>12.4f}{stats['n']:>4}"
                  f"{stats['spread']:>9.4f}")
        lines, result, code = one_run(workload, args.seed, args.seconds, 1)
        if result is None or code != 0 or not result["correct"]:
            failures += 1
        print(f"-- {workload}: traced run")
        for line in lines[:-1]:
            print("   " + line)
    print("all output checks passed" if not failures
          else f"{failures} run(s) failed an output check")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
