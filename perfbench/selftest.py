"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, plain and traced, and checks that
each reports every metric ``BENCHMARK.json`` names, with its unit and a
passing output check; shows that each output check rejects a corrupted
reply or a mismatched digest, and that a traced training run with one
layer's wrapper removed fails its layer check; and checks that the
benchmark refuses to run (non-zero exit, no result line) where the
program's sources are missing.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from types import SimpleNamespace

from common import BENCH_DIR, ROOT, Outcome, WorkDir, program_src
from metrics import END_TO_END, PER_LAYER, WORKLOADS


def check_registry_matches_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == END_TO_END, "end_to_end drift"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER, \
        "per_layer drift"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def check_tiny_runs() -> None:
    import run

    for workload in run.WORKLOADS:
        for trace in (False, True):
            outcome = run.run_workload(workload, seed=3, seconds=1.0,
                                       trace=trace, size="tiny")
            line = run.result_line(outcome, trace)
            names = PER_LAYER if trace else END_TO_END
            assert set(line["metrics"]) == set(names), (workload, trace)
            for name, metric in line["metrics"].items():
                unit = names[name] if trace else names[name][0]
                assert metric["unit"] == unit, (workload, name)
                assert math.isfinite(metric["value"]), (workload, name)
                if not trace:
                    assert metric["value"] > 0, (workload, name)
            assert line["correct"] and line["failed"] == 0, \
                (workload, trace, outcome.checks)
            assert line["attempted"] >= 1
            json.dumps(line)
            print(f"ok  tiny {workload} trace={int(trace)}", flush=True)


def check_checks_reject_bad_outputs() -> None:
    import numpy as np

    import bench_serve
    import bench_train

    reference = SimpleNamespace(user=7, items=np.array([3, 1, 2]),
                                scores=np.array([0.5, 0.25, 0.125]))
    good = {"user": 7, "items": np.array([3, 1, 2]),
            "scores": np.array([0.5, 0.25, 0.125])}
    assert bench_serve.reply_matches(good, reference)
    flipped = good["scores"].copy()
    flipped.view(np.int64)[1] ^= 1  # one bit of one score
    for corrupt in ({**good, "scores": flipped},
                    {**good, "items": np.array([3, 2, 1])},
                    {**good, "user": 8},
                    {"user": 7, "items": [3, 1, 2]}):
        assert not bench_serve.reply_matches(corrupt, reference)

    assert bench_serve.writes_applied(12, 12)
    assert not bench_serve.writes_applied(11, 12)
    assert bench_serve.replicas_agree(["d1", "d1"])
    assert not bench_serve.replicas_agree(["d1", "d2"])
    assert not bench_serve.replicas_agree(["d1"])

    chain = {"finite": True, "digest": "abc", "final_rmse": 1.0}

    def verdicts(chains, reference):
        checks = bench_train.check_chains(chains, reference)
        return [all(row) for row in zip(*checks.values())]

    assert verdicts([chain, dict(chain)], 1.0) == [True, True]
    assert verdicts([chain, {**chain, "digest": "abd"}], None) \
        == [True, False]
    assert verdicts([chain, {**chain, "finite": False}], None) \
        == [True, False]
    assert verdicts([chain], 1.0 + 1e-6) == [False]
    print("ok  output checks reject corrupted replies and digests")


def _traced_tiny_chain(skip_attr=None) -> Outcome:
    """One traced single-process tiny run, in this process, optionally
    with the wrapper of ``skip_attr`` left out."""
    import bench_train
    import layers
    import train_rank

    size = bench_train.SIZES["tiny"]
    original_wrap = layers.LayerClock.wrap

    def wrap(clock, owner, attr, layer):
        if attr != skip_attr:
            original_wrap(clock, owner, attr, layer)

    with WorkDir("layers") as work:
        data = work / "ratings.npz"
        bench_train.make_data(data, size)
        out = io.StringIO()
        layers.LayerClock.wrap = wrap
        try:
            with contextlib.redirect_stdout(out):
                train_rank.main([
                    "--data", str(data), "--num-latent",
                    str(size.num_latent), "--burn-in", str(size.burn_in),
                    "--n-samples", str(size.n_samples), "--seed", "3",
                    "--seconds", "0", "--trace"])
        finally:
            layers.LayerClock.wrap = original_wrap
    result = next(json.loads(line[len("RESULT "):])
                  for line in out.getvalue().splitlines()
                  if line.startswith("RESULT "))
    outcome = Outcome("train-1p")
    bench_train._layer_table([result], size.sweeps, outcome)
    return outcome


def check_layer_check_sees_a_missing_wrapper() -> None:
    import bench_train

    assert _traced_tiny_chain().checks["trace.layers_caught"]
    missing = _traced_tiny_chain(skip_attr="update_items")
    assert not missing.checks["trace.layers_caught"]
    assert missing.checks["trace.sum"]  # the residual alone cannot tell
    rank = {name: 1.0 for name in bench_train.ENGINE_LAYERS
            + bench_train.MPI_LAYERS}
    assert bench_train.layers_caught([rank, dict(rank)])
    assert not bench_train.layers_caught([rank, {**rank, "mpi.coll": 0.0}])
    print("ok  a traced run with a layer's wrapper removed fails its check")


def check_refuses_without_program() -> None:
    with WorkDir("standalone") as work:
        shutil.copy(ROOT / "BENCHMARK.json", work / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, work / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
             "serve-read", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=work, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0, done.stdout
    assert '"correct"' not in done.stdout
    print("ok  refuses to run without the program's sources")


def main() -> int:
    sys.path.insert(0, str(program_src()))
    check_registry_matches_benchmark_json()
    check_checks_reject_bad_outputs()
    check_layer_check_sees_a_missing_wrapper()
    check_refuses_without_program()
    check_tiny_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
