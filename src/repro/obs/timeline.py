"""Per-rank timeline export — Chrome ``trace_event`` JSON.

Converts a recorded :class:`~repro.mpi.tracing.Tracer` stream (the JSONL
written by ``python -m repro run --trace FILE``), including the recovery
phase spans :mod:`repro.obs.spans` injects into it, into the Chrome
tracing format::

    python -m repro timeline trace.jsonl -o timeline.json

The output loads in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: one row per simulated process, phase spans as
duration bars, point events (sends, collectives, kills, spawns, revokes)
as instants — the fault-handling pipeline laid out exactly as the paper's
Fig. 8/9 phases.

Virtual seconds map to trace microseconds (``ts = t * 1e6``).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

#: ts/dur unit conversion: virtual seconds -> trace microseconds
US_PER_SECOND = 1e6


def chrome_trace(events: Iterable = (), *, pid: int = 0) -> dict:
    """Build a Chrome ``trace_event`` document from
    :class:`~repro.mpi.tracing.TraceEvent` records: ``span`` events become
    duration bars, every other event an instant carrying its ``detail``.
    """
    trace_events: List[dict] = []
    tids: Dict[str, int] = {}

    for e in events:
        tid = tids.get(e.actor)
        if tid is None:
            tid = tids[e.actor] = len(tids)
        if e.kind == "span":
            trace_events.append({
                "name": e.phase, "cat": "phase", "ph": "X",
                "pid": pid, "tid": tid,
                "ts": e.start * US_PER_SECOND,
                "dur": e.dur * US_PER_SECOND,
                "args": dict(e.labels),
            })
        else:
            trace_events.append({
                "name": e.kind, "cat": "mpi", "ph": "i", "s": "t",
                "pid": pid, "tid": tid, "ts": e.time * US_PER_SECOND,
                "args": {"detail": e.detail},
            })

    meta: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": pid,
        "args": {"name": "repro simulation"},
    }]
    for actor in sorted(tids, key=tids.get):
        meta.append({"name": "thread_name", "ph": "M", "pid": pid,
                     "tid": tids[actor], "args": {"name": actor}})
        meta.append({"name": "thread_sort_index", "ph": "M", "pid": pid,
                     "tid": tids[actor], "args": {"sort_index": tids[actor]}})

    return {"traceEvents": meta + trace_events, "displayTimeUnit": "ms"}


def export_timeline(trace_path, out_path) -> dict:
    """Load a Tracer JSONL file and write the Chrome trace next to it.

    Returns the document (callers may want event counts).  A file
    :meth:`~repro.mpi.tracing.Tracer.load` refuses raises its ValueError.
    """
    from ..mpi.tracing import Tracer
    tracer = Tracer.load(trace_path)
    doc = chrome_trace(tracer.events)
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return doc
