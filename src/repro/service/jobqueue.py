"""Coalescing background job queue with bounded workers.

The service's miss path: a request for a result that is not in the
store schedules a job here and immediately returns 202.  Three
properties make this safe to expose to many clients at once:

* **coalescing** — jobs are keyed (by the result's content
  fingerprint); while a job for a key is pending or running, further
  submissions for the same key attach to it instead of executing again.
  N concurrent identical requests cost exactly one execution — the
  dedup semantics the sweep engine already guarantees within one batch,
  extended across clients;
* **bounded workers + backpressure** — a fixed worker-thread pool
  drains a bounded pending queue; submitting past the bound raises
  :class:`QueueFull` (the HTTP layer turns that into 503), so a
  traffic spike degrades into explicit retries, not unbounded memory;
* **per-job status** — every job carries a stable id, state, timing and
  error string, served by ``/v1/job/<id>`` and ``wait()``-able by
  embedded users (the benchmark drives the queue directly).

Metrics flow into a :class:`repro.obs.registry.MetricsRegistry`:
``service_jobs`` counters (``event=executed|deduped|failed|rejected``),
a ``service_queue_depth`` gauge, and a ``service_job_seconds``
histogram.
"""

from __future__ import annotations

import queue as _stdqueue
import threading
import time
from typing import Callable, Dict, List, Optional

from ..obs.registry import MetricsRegistry

__all__ = ["Job", "JobQueue", "QueueFull", "wall_now",
           "PENDING", "RUNNING", "DONE", "FAILED"]

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: finished jobs kept around for /v1/job/<id> status queries
_FINISHED_KEEP = 256


def wall_now() -> float:
    """Host wall clock for service latencies — the service layer is
    host-side infrastructure, never simulated code."""
    return time.monotonic()  # noqa: ULF002 host-side service timing, not simulated time


class QueueFull(Exception):
    """The pending queue is at capacity; retry after a drain."""


class Job:
    """One keyed unit of background work."""

    __slots__ = ("id", "key", "label", "state", "result", "error",
                 "waiters", "created", "started", "finished", "_event")

    def __init__(self, job_id: str, key: str, label: str):
        self.id = job_id
        self.key = key
        self.label = label
        self.state = PENDING
        self.result = None
        self.error: Optional[str] = None
        self.waiters = 1
        self.created = wall_now()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self._event = threading.Event()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes (True) or ``timeout`` elapses."""
        return self._event.wait(timeout)

    @property
    def done(self) -> bool:
        return self.state in (DONE, FAILED)

    def describe(self) -> dict:
        d = {"job": self.id, "key": self.key, "label": self.label,
             "status": self.state, "waiters": self.waiters}
        if self.started is not None and self.finished is not None:
            d["seconds"] = round(self.finished - self.started, 6)
        if self.error is not None:
            d["error"] = self.error
        return d


class JobQueue:
    """Bounded worker pool executing keyed, coalesced jobs."""

    def __init__(self, workers: int = 2, max_pending: int = 32,
                 registry: Optional[MetricsRegistry] = None):
        if workers < 1:
            raise ValueError("JobQueue needs at least one worker")
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._lock = threading.Lock()
        # holds (job, fn) tuples, or None as a worker shutdown sentinel
        self._pending: _stdqueue.Queue = _stdqueue.Queue(
            maxsize=max_pending)
        self._by_key: Dict[str, Job] = {}     # in-flight only
        self._jobs: Dict[str, Job] = {}       # incl. recent finished
        self._order: List[str] = []           # finished-job trim order
        self._next_id = 0
        self._depth = self.registry.gauge("service_queue_depth")
        self._seconds = self.registry.histogram("service_job_seconds")
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-job-worker-{i}")
            for i in range(workers)]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    def _count(self, event: str) -> None:
        self.registry.counter("service_jobs", event=event).inc()

    def submit(self, key: str, fn: Callable[[], object],
               label: str = "") -> Job:
        """Schedule ``fn`` under ``key``; coalesce onto an in-flight job
        for the same key if one exists.  Raises :class:`QueueFull` when
        the pending queue is at capacity."""
        with self._lock:
            existing = self._by_key.get(key)
            if existing is not None and not existing.done:
                existing.waiters += 1
                self._count("deduped")
                return existing
            self._next_id += 1
            job = Job(f"job-{self._next_id}", key, label or key[:12])
            try:
                self._pending.put_nowait((job, fn))
            except _stdqueue.Full:
                self._count("rejected")
                raise QueueFull(
                    f"job queue at capacity "
                    f"({self._pending.maxsize} pending)") from None
            self._by_key[key] = job
            self._jobs[job.id] = job
            self._depth.inc()
            return job

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def inflight(self, key: str) -> Optional[Job]:
        """The pending/running job for ``key``, if any."""
        with self._lock:
            job = self._by_key.get(key)
            return job if job is not None and not job.done else None

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            item = self._pending.get()
            if item is None:
                return
            job, fn = item
            self._depth.dec()
            job.started = wall_now()
            job.state = RUNNING
            # a job seen done or failed has already been counted
            try:
                job.result = fn()
            except Exception as exc:   # jobs must never kill a worker
                job.error = f"{type(exc).__name__}: {exc}"
                self._count("failed")
                job.state = FAILED
            else:
                self._count("executed")
                job.state = DONE
            job.finished = wall_now()
            self._seconds.observe(job.finished - job.started)
            with self._lock:
                if self._by_key.get(job.key) is job:
                    del self._by_key[job.key]
                self._order.append(job.id)
                while len(self._order) > _FINISHED_KEEP:
                    self._jobs.pop(self._order.pop(0), None)
            job._event.set()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            inflight = len(self._by_key)
        totals = {c.labels[0][1]: c.value
                  for c in self.registry.counters("service_jobs")}
        return {
            "inflight": inflight,
            "depth": int(self._depth.value),
            "executed": totals.get("executed", 0),
            "deduped": totals.get("deduped", 0),
            "failed": totals.get("failed", 0),
            "rejected": totals.get("rejected", 0),
        }

    def shutdown(self, wait: bool = True) -> None:
        for _ in self._threads:
            self._pending.put(None)
        if wait:
            for t in self._threads:
                t.join(timeout=10)
