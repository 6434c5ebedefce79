"""The persistent results service.

The top of the results path — it imports :mod:`repro.sweep` and
:mod:`repro.experiments`, never the reverse — turning the per-process
sweep engine into a shared results store:

* :class:`SharedStore` / :class:`StoreStats` — the sharded,
  multi-process-safe on-disk blob store, re-exported from
  :mod:`repro.sweep.store` (it is the disk tier of
  :class:`repro.sweep.cache.RunCache`, so it lives below this package);
* :mod:`repro.service.jobqueue` — a bounded worker queue that coalesces
  duplicate in-flight requests (N identical misses -> 1 execution);
* :mod:`repro.service.server` / :mod:`repro.service.client` — a small
  stdlib HTTP API (``python -m repro serve``) that serves experiment and
  run JSON straight from cache and schedules misses in the background
  with 202 + poll semantics.
"""

from ..sweep.store import SharedStore, StoreStats
from .client import ServiceClient, ServiceError
from .jobqueue import Job, JobQueue, QueueFull
from .server import ServiceState, create_server, serve

__all__ = [
    "Job", "JobQueue", "QueueFull",
    "ServiceClient", "ServiceError",
    "ServiceState", "create_server", "serve",
    "SharedStore", "StoreStats",
]
