"""Parallel sweep engine with a memoised run cache.

The experiments (``repro.experiments``) are *plans*: generators that
yield batches of :class:`SweepPoint` values and are sent each batch's
metrics.  :meth:`SweepRunner.drive` executes a plan, fanning each batch
out over a process pool (``--workers N`` / ``REPRO_WORKERS``) and
memoising repeated points in a content-addressed :class:`RunCache`
(optionally persisted with ``--cache DIR`` in a :class:`SharedStore`).
``workers=1`` is a serial fallback that is bit-identical to the pool
path.  This package is the bottom of the results path: it imports
nothing from ``repro.experiments`` or ``repro.service``.

See ``docs/performance.md`` ("The sweep engine") for cache keying rules
and the companion per-run caches in the sparse-grid layer.
"""

from .cache import RunCache, cacheable, fingerprint, run_key
from .runner import SweepPoint, SweepRunner, planned, resolve_workers
from .store import SharedStore, StoreStats

__all__ = [
    "RunCache", "SharedStore", "StoreStats", "SweepPoint", "SweepRunner",
    "cacheable", "fingerprint", "planned", "resolve_workers", "run_key",
]
