"""The four simulator workloads: ``sweep_cold``, ``recovery_real``,
``ranks_wide`` and ``grid_deep``.

Each is a fixed list of :class:`repro.sweep.SweepPoint` values built
from the seed; the program only ever sees those values.  Sizes are set
so that one iteration takes 1.2 to 1.6 s on a 2-core box and at least
eight iterations fit in the run length ``BENCHMARK.json`` fixes (see
``README.md`` for why each workload exists and what it separates).

Set-up launches every point once through the public ``make_universe`` /
``universe.launch`` / ``universe.run`` path.  That one pass is the
warm-up (``cached_scheme``, ``layout_for`` and ``combination_plan``
fill, as they do once per user process), the source of the exact counts
(events, messages, collectives, ...) and the reference the timed
iterations are checked against.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import (AppConfig, RunMetrics, app_main,
                        choose_lost_grids_for_scheme, make_universe,
                        plan_failures, run_app)
from repro.ft import Disk, FailureGenerator
from repro.machine.presets import OPL, RAIJIN
from repro.sweep import SweepPoint, SweepRunner

from measure import now, peak_rss_mb

TECHS = ("CR", "RC", "AC")

#: CR restores exactly: its error must equal the failure-free error to
#: this relative tolerance.  RC (resampling) and AC (fewer grids) lose
#: accuracy with every lost grid; over seeds 0..39 the worst ratio to the
#: failure-free error is 49 (RC) and 234 (AC, five of ten grids lost), so
#: theirs is a sanity bound and the determinism check is the sharp one.
EXACT_RTOL = 1e-9
LOSSY_ERROR_FACTOR = 1024.0

@dataclass
class Iteration:
    """What one iteration of any workload reports to the harness."""

    seconds: float                 #: wall seconds of the whole iteration
    work: float                    #: work units of the successful operations
    work_seconds: float            #: host seconds spent in those operations
    attempted: int                 #: operations: runs, requests, checks
    failures: List[dict] = field(default_factory=list)
    #: extra per-operation samples, pooled over iterations by the harness;
    #: a key ends in its unit (``warm_doc_ms``, ``cold_doc_s``)
    samples: Dict[str, List[float]] = field(default_factory=dict)


def label_of(point: SweepPoint) -> str:
    cfg = point.cfg
    return (f"{point.machine.name}/{cfg.recovery_mode}/{cfg.technique_code}"
            f"/dp{cfg.diag_procs}/k{len(point.kills)}"
            f"/l{len(cfg.simulated_lost_gids)}")


def failure(op: str, exc: BaseException) -> dict:
    return {"op": op, "type": type(exc).__name__, "error": str(exc)[:200]}


def canonical(metrics: RunMetrics) -> str:
    """The run's results as one comparable string.  The two span tables
    are attached by ``run_app`` after the run, outside the launch path
    the warm-up uses, so they stay out of the comparison."""
    d = metrics.to_dict()
    d.pop("phase_breakdown", None)
    d.pop("phase_by_grid", None)
    return json.dumps(d, sort_keys=True, default=repr)


def is_quiet(point: SweepPoint) -> bool:
    return not point.kills and not point.cfg.simulated_lost_gids


# ----------------------------------------------------------------------
# executing points
# ----------------------------------------------------------------------
def counted_run(point: SweepPoint) -> Tuple[RunMetrics, Dict[str, float]]:
    """One run through the public launch path, with the universe kept so
    its counters can be read afterwards (``run_app`` drops it)."""
    cfg = replace(point.cfg)
    if cfg.technique_code.upper() == "CR" and cfg.disk is None:
        cfg.disk = Disk()
    universe, total = make_universe(cfg, point.machine, point.n_spares)
    job = universe.launch(total, app_main, argv=(cfg,))
    if point.kills:
        FailureGenerator().inject(universe, job, point.kills)
    universe.run()
    metrics = job.results()[0]
    if metrics is None:     # rank 0 was killed: its replacement reports
        metrics = [r for j in universe.jobs for r in j.results()
                   if isinstance(r, RunMetrics)][-1]
    stats = universe.stats
    return metrics, {
        "simkernel.events": universe.engine.events_processed,
        "mpi.messages": stats.messages, "mpi.bytes": stats.bytes_sent,
        "mpi.coll_calls": stats.collectives.total(),
        "mpi.comms_created": stats.comms_created,
        "mpi.spawns": stats.spawns, "ft.kills": stats.kills}


Outcome = Tuple[object, float]   # (RunMetrics or the exception, seconds)


def run_each(points: Sequence[SweepPoint]) -> List[Outcome]:
    """Every point through ``run_app``; a raised run is recorded, never
    propagated."""
    out: List[Outcome] = []
    for point in points:
        t0 = now()
        try:
            result: object = run_app(replace(point.cfg), point.machine,
                                     kills=point.kills,
                                     n_spares=point.n_spares)
        except Exception as exc:   # noqa: BLE001 - counted as a failed operation
            result = exc
        out.append((result, now() - t0))
    return out


def run_swept(points: Sequence[SweepPoint]) -> List[Outcome]:
    """All points as one batch through a fresh ``SweepRunner(workers=1)``
    — key, cache miss, execute, pickle, put — as ``repro experiment``
    runs them.  The batch is one call, so its time is shared evenly."""
    t0 = now()
    try:
        results: List[object] = SweepRunner(workers=1).run(points)
    except Exception as exc:   # noqa: BLE001 - the whole batch failed
        results = [exc] * len(points)
    share = (now() - t0) / len(points)
    return [(r, share) for r in results]


# ----------------------------------------------------------------------
# the workload object
# ----------------------------------------------------------------------
Builder = Callable[[int], Tuple[List[SweepPoint], Optional[float]]]


class SimWorkload:
    """Set-up (inputs, baselines, counted warm-up) and the timed
    iteration of one simulator workload."""

    def __init__(self, name: str, build: Builder,
                 execute: Callable = run_each):
        self.name = name
        self._build = build
        self._execute = execute
        self.points: List[SweepPoint] = []
        self.reference: List[Optional[str]] = []
        self.ref_error = float("nan")
        self.counts: Dict[str, float] = {}
        self.setup_failures: List[dict] = []
        self.spans: List[dict] = []     # only serve_mixed has client spans
        self.traced_setup_iterations: List[Iteration] = []   # likewise

    def setup(self, seed: int) -> None:
        self.points, ref_error = self._build(seed)
        totals: Counter = Counter()
        error_max = 0.0
        for point in self.points:
            try:
                m, counts = counted_run(point)
            except Exception as exc:   # noqa: BLE001 - shows as a failed check later
                self.setup_failures.append(failure(label_of(point), exc))
                self.reference.append(None)
                continue
            self.reference.append(canonical(m))
            totals.update(counts)
            totals.update({
                "core.runs": 1, "core.rank_steps": m.world_size * m.steps,
                "core.virt_t_total_s": m.t_total,
                "ft.virt_detect_s": m.t_detect,
                "ft.virt_reconstruct_s": m.t_reconstruct,
                "ft.virt_recovery_s": m.t_recovery})
            error_max = max(error_max, m.error_l1)
            if ref_error is None and is_quiet(point) \
                    and point.cfg.technique_code == "CR":
                ref_error = m.error_l1
        if ref_error is None:
            raise RuntimeError(f"{self.name}: no failure-free CR run to "
                               "take the reference error from")
        self.ref_error = ref_error
        self.counts = {**totals, "core.error_l1_max": error_max}

    def close(self) -> None:
        """Nothing outlives the iterations."""

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def traced_unit(self, n_reads: int):
        """What the traced pass profiles, and its clean-up."""
        return self.iteration, lambda: None

    def _accurate(self, point: SweepPoint, m: RunMetrics) -> bool:
        err, ref = m.error_l1, self.ref_error
        if point.cfg.technique_code == "CR":
            return abs(err - ref) <= EXACT_RTOL * ref
        return math.isfinite(err) and err <= LOSSY_ERROR_FACTOR * ref

    def iteration(self) -> Iteration:
        t0 = now()
        outcomes = self._execute(self.points)
        it = Iteration(seconds=now() - t0, work=0.0, work_seconds=0.0,
                       attempted=0)
        for point, ref, (result, secs) in zip(self.points, self.reference,
                                              outcomes):
            op = label_of(point)
            if isinstance(result, BaseException):
                it.attempted += 1      # its checks were never attempted
                it.failures.append(failure(op, result))
                continue
            it.attempted += 3          # the run, its accuracy, its determinism
            it.work += result.world_size * result.steps
            it.work_seconds += secs
            if not self._accurate(point, result):
                it.failures.append({
                    "op": op + " accuracy", "type": "CheckFailed",
                    "error": f"error_l1 {result.error_l1!r} vs failure-free "
                             f"{self.ref_error!r}"})
            if canonical(result) != ref:
                it.failures.append({
                    "op": op + " determinism", "type": "CheckFailed",
                    "error": "RunMetrics differ from the warm-up launch"})
        return it


# ----------------------------------------------------------------------
# the four input builders
# ----------------------------------------------------------------------
SWEEP_SHAPE = dict(n=7, level=4, steps=8, diag_procs=8, layout_mode="paper",
                   checkpoint_count=4)
RECOVERY_SHAPE = dict(n=7, level=4, steps=8, diag_procs=16,
                      layout_mode="sweep", checkpoint_count=2)
RECOVERY_MODES = ("respawn", "shrink")
KILL_WINDOW = (0.51, 0.61)


def quiet_error(cfg: AppConfig) -> float:
    return run_app(replace(cfg, simulated_lost_gids=()), OPL).error_l1


def build_sweep_cold(seed: int):
    """The 30 fig9-shaped points: OPL and RAIJIN x CR/RC/AC x 1..5
    simulated lost grids, the lost sets drawn from the seed."""
    points = []
    for machine in (OPL, RAIJIN):
        for code in TECHS:
            base = AppConfig(technique_code=code, **SWEEP_SHAPE)
            for n_lost in range(1, 6):
                lost = choose_lost_grids_for_scheme(base.scheme(), code,
                                                    n_lost, seed=seed)
                points.append(SweepPoint(
                    replace(base, simulated_lost_gids=lost), machine))
    return points, quiet_error(points[0].cfg)


def recovery_config(mode: str, code: str) -> AppConfig:
    return AppConfig(technique_code=code, recovery_mode=mode,
                     **RECOVERY_SHAPE)


def recovery_points(seed: int, modes: Sequence[str]):
    """``modes`` x CR/RC/AC x {1, 2} real kills; each kill lands at a
    seeded fraction of its own failure-free solve time.  Returns the
    points and the failure-free CR error."""
    rng = random.Random(seed)
    points, ref_error = [], None
    for mode in modes:
        for code in TECHS:
            cfg = recovery_config(mode, code)
            base = run_app(replace(cfg), OPL)
            if code == "CR" and ref_error is None:
                ref_error = base.error_l1
            for n_fail in (1, 2):
                at = rng.uniform(*KILL_WINDOW) * base.t_solve
                kills = plan_failures(cfg, n_fail, at=at, seed=seed)
                points.append(SweepPoint(cfg, OPL, tuple(kills)))
    return points, ref_error


def build_recovery_real(seed: int):
    return recovery_points(seed, RECOVERY_MODES)


def build_ranks_wide(seed: int):
    """Failure-free, 352 to 784 ranks, slabs of 2 to 4 rows (the seed
    has nothing to draw here)."""
    shape = dict(n=8, level=4, steps=8, layout_mode="paper")
    cfgs = [AppConfig(technique_code=c, diag_procs=64, **shape)
            for c in TECHS]
    cfgs.append(AppConfig(technique_code="AC", diag_procs=128, **shape))
    return [SweepPoint(c, OPL) for c in cfgs], None


def build_grid_deep(seed: int):
    """Failure-free, one rank per sub-grid, 2^10 x 2^7 arrays; CR writes
    four full-grid checkpoints to the in-memory ``Disk``."""
    shape = dict(n=10, level=4, steps=16, diag_procs=1, layout_mode="paper")
    return [SweepPoint(AppConfig(technique_code=c, **shape), OPL)
            for c in TECHS], None


def make(name: str) -> SimWorkload:
    if name == "sweep_cold":
        return SimWorkload(name, build_sweep_cold, run_swept)
    builders = {"recovery_real": build_recovery_real,
                "ranks_wide": build_ranks_wide,
                "grid_deep": build_grid_deep}
    return SimWorkload(name, builders[name])
