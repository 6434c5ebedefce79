"""Recovery-phase spans — timed intervals over the fault-handling pipeline.

A *span* is one rank's traversal of one phase: opened when the phase
starts (e.g. at failure detection), closed when it completes, stamped with
virtual start/end times and an engine sequence number so spans sharing a
virtual timestamp still have a deterministic order.  The span set is the
machine-readable form of the paper's timing breakdowns (Figs. 8-11,
Table I): detection, communicator reconstruction (ack/agree, revoke+shrink,
spawn+merge+split) and per-technique data recovery.

Closed spans form one flat log, with per-actor phase totals kept beside
it; the totals are also the run's repair clock (``RunMetrics.t_*``, read
through :meth:`~repro.mpi.universe.RankContext.spent`).  The per-grid
totals are derived from the log on demand.
When a :class:`~repro.mpi.tracing.Tracer` is attached, a close also lands
in the event stream as a ``span`` event (phase, start, duration, labels)
for ``python -m repro timeline``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Mapping

#: canonical phase names, in pipeline order (the timeline exporter and the
#: experiment JSON schema validate against this list)
PHASES = (
    "solve",             # failure-free stepping
    "detect",            # failed-process list creation (Fig. 8a)
    "agree",             # OMPI_Comm_agree round (Table I)
    "shrink",            # revoke + OMPI_Comm_shrink (Table I)
    "spawn",             # MPI_Comm_spawn_multiple (Table I)
    "merge",             # MPI_Intercomm_merge + re-order split (Table I)
    "reconstruct",       # whole Fig. 3/5 repair (Fig. 8b)
    "checkpoint_write",  # CR periodic writes
    "checkpoint_read",   # CR restore reads
    "recompute",         # CR lost-step recomputation
    "recovery",          # technique data-recovery window (Fig. 9a)
    "combine",           # gather-scatter combination
    "redistribute",      # shrink-in-place: survivor re-decomposition + migration
)


class OpenSpan:
    """Context manager returned by :meth:`SpanRecorder.span`."""

    __slots__ = ("recorder", "actor", "phase", "labels", "t_start", "seq")

    def __init__(self, recorder: "SpanRecorder", actor: str, phase: str,
                 labels: Dict[str, object]):
        self.recorder = recorder
        self.actor = actor
        self.phase = phase
        # one shared read-only mapping per label set, so an open converts
        # no dict; sets compare by value, as dict keys do (``gid=1`` and
        # ``gid=1.0`` are one set)
        key = tuple(labels.items())
        try:
            self.labels = recorder.label_sets[key]
        except KeyError:
            self.labels = recorder.label_sets.setdefault(
                key, MappingProxyType({k: str(v) for k, v in key}))

    def __enter__(self) -> "OpenSpan":
        self.t_start, self.seq = self.recorder.stamp()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # close even on error: a phase aborted by a further failure still
        # consumed its time (the paper's retried repairs accumulate too)
        self.recorder.close(self)
        return None


class SpanRecorder:
    """Collects spans; aggregates per phase / per rank / per label.

    ``stamp`` is a callable returning a monotone ``(virtual_time, seq)``
    pair — normally :meth:`repro.simkernel.Engine.stamp`.  ``log`` holds
    one ``(actor, phase, t_start, t_end, seq, labels)`` record per span, up
    to ``max_spans``; ``totals`` (actor -> phase -> seconds) counts every
    close, those past ``max_spans`` included, adding in close order.
    ``tracing`` is the object whose ``tracer`` attribute a close reads —
    normally the :class:`~repro.mpi.universe.Universe`: while it holds a
    :class:`~repro.mpi.tracing.Tracer`, each logged span is also
    recorded there as a ``span`` event.
    """

    def __init__(self, stamp: Callable[[], tuple], tracing=None,
                 max_spans: int = 100_000):
        self.stamp = stamp
        self.tracing = tracing
        self.log: List[tuple] = []
        self.totals: Dict[str, Dict[str, float]] = {}
        #: label set -> the ``str``-valued mapping its spans share
        self.label_sets: Dict[tuple, Mapping[str, str]] = {}
        self.max_spans = max_spans
        self.dropped = 0

    # ------------------------------------------------------------------
    def span(self, actor: str, phase: str, **labels) -> OpenSpan:
        """Open a phase span; use as a context manager."""
        return OpenSpan(self, actor, phase, labels)

    def close(self, open_span: OpenSpan) -> None:
        t_end, _ = self.stamp()
        o = open_span
        phases = self.totals.setdefault(o.actor, {})
        phases[o.phase] = phases.get(o.phase, 0.0) + (t_end - o.t_start)
        if len(self.log) >= self.max_spans:
            self.dropped += 1
            return
        self.log.append((o.actor, o.phase, o.t_start, t_end, o.seq, o.labels))
        tracer = getattr(self.tracing, "tracer", None)
        if tracer is not None:
            tracer.record(t_end, o.actor, "span", phase=o.phase,
                          start=o.t_start, dur=t_end - o.t_start,
                          labels=o.labels)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def phase_totals(self, reduce: str = "max") -> Dict[str, float]:
        """Per-phase time, reduced across actors.

        ``reduce="max"`` (default) gives the wall-clock view: ranks run a
        phase concurrently, so the slowest rank's accumulated time is the
        run's cost — the same convention the paper's figures use.
        ``reduce="sum"`` gives total process-time (the Fig. 9b currency).
        """
        if reduce not in ("max", "sum"):
            raise ValueError(f"reduce must be 'max' or 'sum', got {reduce!r}")
        totals: Dict[str, float] = {}
        for phases in self.totals.values():
            for phase, dur in phases.items():
                if reduce == "sum":
                    totals[phase] = totals.get(phase, 0.0) + dur
                else:
                    totals[phase] = max(totals.get(phase, 0.0), dur)
        return totals

    def by_label(self, key: str) -> Dict[str, Dict[str, float]]:
        """label value -> phase -> accumulated seconds (spans lacking the
        label are skipped); e.g. ``by_label("gid")`` for per-grid totals."""
        out: Dict[str, Dict[str, float]] = {}
        for _actor, phase, t_start, t_end, _seq, labels in self.log:
            val = labels.get(key)
            if val is None:
                continue
            phases = out.setdefault(val, {})
            phases[phase] = phases.get(phase, 0.0) + (t_end - t_start)
        return out
