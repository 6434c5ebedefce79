"""The traced run: per-layer self time, share and calls of one iteration.

``cProfile`` is enabled from here, around the iteration, and every
call's self time (own time minus children) goes to the layer that owns
the callee's module — ``repro.<layer>`` — with ``numpy``, ``builtins``
and ``stdlib`` (the standard library and anything else, this harness
included) as extra buckets.  That is one span per call at the layer
boundary, recorded from the benchmark's own files; spans inside the
program are a later change.

The profiler charges every Python call but not the work inside native
code, so call-heavy layers read high: shares rank layers and compare
one layer across two commits, they are not absolute seconds.
``trace.overhead_ratio`` says by how much.
"""

from __future__ import annotations

import cProfile
from typing import Callable, Dict, Tuple

from measure import now

LAYERS = ("simkernel", "mpi", "machine", "pde", "sparsegrid", "ft", "core",
          "obs", "sweep", "service", "experiments")
BUCKETS = LAYERS + ("numpy", "builtins", "stdlib")

#: functions listed per bucket in the trace file, by self time
TOP_FUNCTIONS = 8


def bucket_of(code) -> str:
    """The bucket owning one profiler entry's callee."""
    if isinstance(code, str):           # a C function, named by its repr
        return "numpy" if "numpy" in code else "builtins"
    filename = code.co_filename.replace("\\", "/")
    at = filename.rfind("/repro/")
    if at >= 0:
        layer = filename[at + len("/repro/"):].split("/", 1)[0]
        return layer if layer in LAYERS else "stdlib"
    return "numpy" if "/numpy/" in filename else "stdlib"


def _describe(code) -> str:
    if isinstance(code, str):
        return code
    tail = "/".join(code.co_filename.replace("\\", "/").split("/")[-2:])
    return f"{tail}:{code.co_firstlineno} {code.co_name}"


def profiled(fn: Callable[[], object]) -> Tuple[object, float, dict]:
    """Run ``fn`` under the profiler.  Returns its result, the traced
    wall seconds and ``{bucket: {self_s, share, calls, top}}``."""
    profiler = cProfile.Profile()
    t0 = now()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    seconds = now() - t0
    buckets: Dict[str, dict] = {
        b: {"self_s": 0.0, "calls": 0, "top": []} for b in BUCKETS}
    for entry in profiler.getstats():
        bucket = buckets[bucket_of(entry.code)]
        bucket["self_s"] += entry.inlinetime
        bucket["calls"] += entry.callcount
        bucket["top"].append((entry.inlinetime, entry.callcount,
                              _describe(entry.code)))
    total = sum(b["self_s"] for b in buckets.values()) or 1.0
    for bucket in buckets.values():
        bucket["share"] = bucket["self_s"] / total
        top = sorted(bucket["top"], reverse=True)[:TOP_FUNCTIONS]
        bucket["top"] = [{"self_s": s, "calls": c, "function": f}
                         for s, c, f in top]
    return result, seconds, buckets


def bucket_metrics(buckets: dict) -> Dict[str, dict]:
    """``<bucket>.self_s`` / ``.share`` / ``.calls`` metric entries."""
    out = {}
    for name, b in buckets.items():
        out[f"{name}.self_s"] = {"value": b["self_s"], "unit": "s"}
        out[f"{name}.share"] = {"value": b["share"], "unit": "share"}
        out[f"{name}.calls"] = {"value": b["calls"], "unit": "count"}
    return out
