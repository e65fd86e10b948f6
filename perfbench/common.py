"""Shared pieces of the benchmark: paths, statistics, child processes,
the environment block and the result record.

Nothing here imports the program under test; the workload modules do,
after :func:`program_src` has checked that the source tree is present.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: How many times a run sets the program up (launch to ready); the
#: reported ``setup_s`` is the median, so one slow start cannot move it.
SETUP_REPEATS = 5

#: How long a child may take to become ready or to finish before the
#: benchmark gives up on it (the whole run must end within 180 s).
CHILD_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, child crashed)."""


def program_src() -> Path:
    """The program's source tree; raises when the checkout lacks it."""
    src = ROOT / "src" / "repro"
    if not (src / "__init__.py").is_file():
        raise BenchError(f"program source not found at {src.parent}")
    return src.parent


def child_env() -> Dict[str, str]:
    """Environment for program processes: the checkout's sources first.

    BLAS threading is deliberately left as inherited (the program's own
    behaviour); :func:`environment_block` records it.
    """
    env = dict(os.environ)
    parts = [str(program_src()), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env["PYTHONUNBUFFERED"] = "1"
    return env


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, name: str):
        self.path = BENCH_DIR / ".work" / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Child:
    """One program process: launch time, stdout lines, exit and peak RSS.

    Reaped with ``os.wait4`` so the peak RSS is this child's own, not the
    largest of every child the benchmark ever waited for.
    """

    def __init__(self, argv: Sequence[str], log: Path):
        self.argv = list(argv)
        # stderr goes to a file: an unread pipe could fill and stall the
        # child mid-measurement.
        self.log = log
        with open(log, "w") as stderr:
            self.launched = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv, stdout=subprocess.PIPE, stderr=stderr,
                stdin=subprocess.DEVNULL, text=True, env=child_env(),
                cwd=str(ROOT))
        self.maxrss_kb: Optional[int] = None
        self.returncode: Optional[int] = None

    def readline(self) -> str:
        """The next stdout line; raises if the child exits first."""
        line = self.proc.stdout.readline()
        if not line:
            self.reap(timeout=5.0)
            raise BenchError(
                f"{self.argv[1:3]} exited ({self.returncode}) before "
                f"answering: {self.stderr_tail()}")
        return line

    def read_json(self, prefix: str) -> Dict[str, object]:
        """Skip stdout lines until one starts with ``prefix``; parse it."""
        while True:
            line = self.readline()
            if line.startswith(prefix):
                return json.loads(line[len(prefix):])

    def stderr_tail(self) -> str:
        try:
            return self.log.read_text()[-800:]
        except OSError:
            return ""

    def terminate(self) -> None:
        if self.returncode is None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def reap(self, timeout: float = CHILD_TIMEOUT_S) -> int:
        """Wait for exit (killing after ``timeout``); records peak RSS."""
        if self.returncode is not None:
            return self.returncode
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.returncode = os.waitstatus_to_exitcode(status)
        # Popen must not wait on a pid that is already reaped.
        self.proc.returncode = self.returncode
        self.maxrss_kb = int(usage.ru_maxrss)
        return self.returncode

    def close(self) -> None:
        """Stop the child if still running and release its pipes."""
        if self.returncode is None:
            self.terminate()
            self.reap(timeout=15.0)
        self.proc.stdout.close()


def python_child(log: Path, script: str, *args: str) -> Child:
    """Launch one of the benchmark's own scripts (``train_rank.py``)."""
    return Child([sys.executable, str(BENCH_DIR / script), *args], log)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (as ``statistics.quantiles(values, n=4)`` gives
    them), sample count and spread (quartile distance over median)."""
    values = list(values)
    median = statistics.median(values)
    q1 = q3 = median
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------

def _blas_threads() -> str:
    """OpenBLAS's own thread count, when the bundled library says."""
    import ctypes
    import glob

    import numpy

    libs_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs_dir / "*openblas*")):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return str(function())
    return "unknown"


def environment_block() -> Dict[str, object]:
    """What a comparison between two reports must hold equal."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    thread_env = {name: os.environ.get(name, "unset")
                  for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": thread_env,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m_start": round(os.getloadavg()[0], 2),
    }


# ---------------------------------------------------------------------------
# the result of one run
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``end_to_end``/``per_layer`` map a metric name to its samples (every
    sample the run took; the reported value is their median).  ``checks``
    maps an output check to its verdict; any False makes the run
    incorrect and counts in ``failed``.
    """

    workload: str
    attempted: int = 0
    failed: int = 0
    end_to_end: Dict[str, List[float]] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    sum_check: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> bool:
        """Record one output check (a name may be checked repeatedly;
        it passes only if every instance passed)."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and bool(self.checks)
