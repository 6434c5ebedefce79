"""Shared helpers of the benchmark: statistics, host facts, calibration.

Nothing here imports ``repro`` — ``compare.py`` and the smoke test use
these helpers without the package on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: a workload whose calibration loop differs by more than this between
#: its start and its end ran on a host whose speed changed under it
NOISY_CALIBRATION_SHARE = 0.10

#: percentiles tried for the reported tail, highest first
_TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0)

#: units whose values must repeat exactly run to run (simulated results
#: and operation counts); ``compare.py`` compares them by equality
EXACT_UNITS = frozenset({"count", "virt_s", "l1"})


def now() -> float:
    return time.perf_counter()


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p: float) -> float:
    """The p-th percentile by nearest rank."""
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, round(p / 100.0 * (len(ordered) - 1))))
    return ordered[k]


def tail(values):
    """(percentile, value) for the highest percentile of the ladder that
    still has at least ten samples beyond it, or ``None``."""
    n = len(values)
    for p in _TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, percentile(values, p)
    return None


def summarize(samples, unit: str) -> dict:
    """A metric entry: the median is the value, the spread rides along."""
    samples = [float(s) for s in samples]
    q1, med, q3 = quartiles(samples)
    entry = {"value": med, "unit": unit, "q1": q1, "q3": q3,
             "min": min(samples), "max": max(samples), "n": len(samples),
             "samples": samples}
    t = tail(samples)
    if t is not None:
        entry["tail"] = {"percentile": t[0], "value": t[1]}
    return entry


def scalar(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def iqr_share(samples) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(samples)
    return (q3 - q1) / med if med else 0.0


# ----------------------------------------------------------------------
# host
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB on
    Linux, bytes on macOS)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        rss /= 1024.0
    return rss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def calibrate() -> float:
    """Seconds for a fixed loop: pure Python plus one numpy stencil.

    Timed before and after each workload; the two readings tell a slow
    host from a slow commit (the loop never touches ``repro``)."""
    import numpy as np
    best = float("inf")
    for _ in range(3):
        t0 = now()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        u = np.linspace(0.0, 1.0, 512 * 512).reshape(512, 512)
        for _ in range(40):
            u[1:-1, 1:-1] = 0.25 * (u[2:, 1:-1] + u[:-2, 1:-1] +
                                    u[1:-1, 2:] + u[1:-1, :-2])
        best = min(best, now() - t0)
    return best


def host_facts() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def git_commit() -> str:
    """HEAD of the checkout (``+dirty`` with uncommitted changes), or
    ``unknown`` outside a git repository."""
    def git(*args):
        return subprocess.run(("git", *args), cwd=REPO_ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    try:
        head = git("rev-parse", "HEAD")
        return head + ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_declaration() -> dict:
    """``BENCHMARK.json``: the metric and workload names, units, bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
