"""Observability: metrics registry, recovery-phase spans, timeline export.

The paper's headline artifacts are *timing breakdowns* of the
fault-handling pipeline; this package is the layer that produces them:

* :class:`MetricsRegistry` — labelled counters/gauges/histograms; a
  universe's is the only store of its MPI traffic counters
  (``repro.mpi.stats.CommStats`` is their read-only view);
* :class:`SpanRecorder` — per-rank phase timers (detect, agree, shrink,
  spawn, merge, data recovery, ...) accumulated per rank and per grid,
  surfaced as ``RunMetrics.phase_breakdown``; a universe keeps one as
  ``universe.spans``;
* :func:`chrome_trace` / :func:`export_timeline` — Chrome ``trace_event``
  export of a recorded run (``python -m repro timeline``), viewable in
  Perfetto;
* :mod:`repro.obs.schema` — validators for the machine-readable outputs
  (CI gates on them).
"""

from .registry import (Counter, DEFAULT_BUCKETS, Gauge, Histogram,
                       MetricsRegistry)
from .schema import (EXPERIMENT_SCHEMA_VERSION, SchemaError,
                     validate_chrome_trace, validate_experiment_doc,
                     validate_phase_breakdown)
from .spans import PHASES, SpanRecorder
from .timeline import chrome_trace, export_timeline

__all__ = [
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "DEFAULT_BUCKETS",
    "SpanRecorder", "PHASES",
    "chrome_trace", "export_timeline",
    "SchemaError", "EXPERIMENT_SCHEMA_VERSION",
    "validate_phase_breakdown", "validate_experiment_doc",
    "validate_chrome_trace",
]
