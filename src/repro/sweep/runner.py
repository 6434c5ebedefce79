"""The parallel sweep engine: fan independent runs out over processes.

Every headline experiment is a grid of *independent* simulations —
``(machine x technique x lost-count x seed)`` points that never share a
core inside the simulator.  :class:`SweepRunner` executes such a grid:

* points are declared up front as :class:`SweepPoint` values (pure data,
  picklable) and results come back in declaration order;
* ``workers > 1`` fans the points out over a ``ProcessPoolExecutor``;
  ``workers=1`` runs them inline.  The two paths are bit-identical — a
  run is fully deterministic given its point, and results always cross a
  pickle boundary (pool transport or the cache's blob store);
* identical points are computed once: the runner keys every point
  through :func:`repro.sweep.cache.run_key` and serves repeats from its
  :class:`~repro.sweep.cache.RunCache` (in-memory always; on-disk when
  the cache was built with a directory).

An experiment is a *plan*: a generator that yields its batches of
points, is sent each batch's metrics, and returns its aggregated result.
A plan never sees a runner, a cache or a worker count — it is a pure
function of its parameters and the metrics it is sent — and
:meth:`SweepRunner.drive` is the only thing that executes one.

Worker count resolution: an explicit ``workers=`` argument wins, then
the ``REPRO_WORKERS`` environment variable, then 1 (serial).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..core.app import AppConfig
from ..core.runner import run_app
from ..ft.failure_injection import Kill
from ..machine import MachineSpec
from .cache import RunCache, cacheable, run_key

__all__ = ["SweepPoint", "SweepRunner", "planned", "resolve_workers"]

#: environment override for the default worker count
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument > ``REPRO_WORKERS`` > 1 (serial).

    On a single-CPU box a process pool only adds fork and pickle overhead,
    so the ``REPRO_WORKERS``/default paths clamp to serial when
    ``os.cpu_count() <= 1``.  An explicit ``workers`` argument (the CLI's
    ``--workers N``) is always honoured verbatim.
    """
    if workers is not None:
        return max(1, int(workers))
    if (os.cpu_count() or 1) <= 1:
        return 1
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV}={env!r} is not an integer") from None
    return 1


@dataclass(frozen=True)
class SweepPoint:
    """One independent application run: everything :func:`run_app` needs.

    Frozen and picklable — this is the unit that crosses the pool
    boundary and the unit the run cache keys.
    """

    cfg: AppConfig
    machine: MachineSpec
    kills: Tuple[Kill, ...] = ()
    n_spares: int = 0

    def key(self) -> Optional[str]:
        """Cache key, or ``None`` for uncacheable points (explicit disk)."""
        if not cacheable(self.cfg):
            return None
        return run_key(self.cfg, self.machine, self.kills, self.n_spares)


def _execute(point: SweepPoint):  # repro: cacheable
    """Run one point (also the pool's worker entry — module level so it
    pickles by reference).  Declared cacheable: the run cache replays
    its result by content key, so it must stay a pure function of the
    point (enforced statically by ULF012)."""
    cfg = point.cfg
    if cfg.disk is None:
        # run_app attaches a scratch Disk to CR configs; run on a copy so
        # the point stays pristine in the serial path (the pool path runs
        # on a pickled copy anyway).  Points with a caller-supplied disk
        # run on the original — its mutations are the caller's interface.
        cfg = replace(cfg)
    return run_app(cfg, point.machine, kills=tuple(point.kills),
                   n_spares=point.n_spares)


def _pool_context():
    """Prefer ``fork`` (cheap, inherits ``sys.path``); fall back to the
    platform default where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


@dataclass
class SweepRunner:
    """Executes batches of sweep points with memoisation and fan-out.

    One runner (and its cache) is meant to live for a whole experiment —
    or several: driving ``fig8`` and ``table1`` on one runner
    deduplicates their common baseline runs.
    """

    workers: Optional[int] = None
    cache: Optional[RunCache] = None

    def __post_init__(self):
        self.workers = resolve_workers(self.workers)
        if self.cache is None:
            self.cache = RunCache()

    # ------------------------------------------------------------------
    def run(self, points: Sequence[SweepPoint]) -> List:
        """Execute ``points``; returns their metrics in the same order.

        Cached points are served from the cache; repeated points within
        the batch are computed once; uncacheable points (explicit
        ``cfg.disk``) always execute, in this process, so their disk
        mutations stay visible to the caller.
        """
        points = list(points)
        results: List = [None] * len(points)
        jobs: "dict[str, List[int]]" = {}   # key -> positions awaiting it
        inline: List[int] = []              # uncacheable positions
        for i, point in enumerate(points):
            key = point.key()
            if key is None:
                inline.append(i)
                continue
            if key in jobs:                 # duplicate within this batch
                jobs[key].append(i)
                self.cache.note_hit()
                continue
            cached = self.cache.get(key)
            if cached is not None:
                results[i] = cached
            else:
                jobs[key] = [i]

        exec_keys = list(jobs)
        exec_points = [points[jobs[k][0]] for k in exec_keys]
        for key, metrics in zip(exec_keys, self._execute_batch(exec_points)):
            self.cache.put(key, metrics)
            positions = jobs[key]
            results[positions[0]] = metrics
            for pos in positions[1:]:       # owned copies for duplicates
                results[pos] = self.cache.load(key)
        for i in inline:
            results[i] = _execute(points[i])
        return results

    def run_one(self, point: SweepPoint):
        """Convenience: one point through the same cache."""
        return self.run([point])[0]

    def drive(self, plan):
        """Execute a plan: :meth:`run` each batch it yields, send the
        metrics back in declaration order, return what it returns."""
        try:
            batch = next(plan)
            while True:
                batch = plan.send(self.run(batch))
        except StopIteration as done:
            return done.value

    # ------------------------------------------------------------------
    def _execute_batch(self, points: Sequence[SweepPoint]) -> List:
        if self.workers > 1 and len(points) > 1:
            n = min(self.workers, len(points))
            with ProcessPoolExecutor(max_workers=n,
                                     mp_context=_pool_context()) as pool:
                return list(pool.map(_execute, points))
        return [_execute(p) for p in points]


def planned(plan):
    """Turn a plan function into a callable that runs it:
    ``planned(f)(**params, runner=r)`` drives ``f(**params)`` on ``r``
    (a fresh default :class:`SweepRunner` when none is given)."""
    @functools.wraps(plan)
    def run(*, runner: Optional[SweepRunner] = None, **params):
        if runner is None:
            runner = SweepRunner()
        return runner.drive(plan(**params))
    return run
