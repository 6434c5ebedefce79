"""Fig. 8: failure identification and communicator reconstruction times.

Two panels, both vs core count (19..304) with one and two real process
failures:

* (a) creating the list of failed processes — shrink + group algebra;
* (b) reconstructing the faulty communicator — the whole Fig. 3/5 repair.

Expected shape (paper Sec. III-A): both grow with core count, and the
two-failure case is dramatically more expensive than one failure (the
"unsatisfactory" beta behaviour driven by shrink and agree).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..core import AppConfig, plan_failures
from ..machine.presets import OPL
from ..sweep import SweepPoint, planned
from .report import format_table, merge_phases, scale_phases
from .table1 import SWEEP_DIAG_PROCS


@dataclass
class Fig8Point:
    cores: int
    n_failures: int
    t_failed_list: float     #: Fig. 8a
    t_reconstruct: float     #: Fig. 8b
    #: per-phase critical-path seconds, seed-averaged
    phases: Dict[str, float] = field(default_factory=dict)


QUICK = dict(steps=8, seeds=(0,))
FULL = dict(steps=8, seeds=(0, 1, 2))


@planned
def run_fig8(*, n: int = 7, level: int = 4, steps: int = 8,  # repro: cacheable
             diag_procs: Sequence[int] = SWEEP_DIAG_PROCS,
             failure_counts: Sequence[int] = (1, 2),
             seeds: Sequence[int] = (0,), machine=OPL):
    def _cfg(p):
        return AppConfig(n=n, level=level, technique_code="CR", steps=steps,
                         diag_procs=p, layout_mode="sweep",
                         checkpoint_count=2)

    # stage 1: failure-free baselines (shared with run_table1 when the two
    # experiments run on one cache)
    base_points = [SweepPoint(_cfg(p), machine) for p in diag_procs]
    t_solves = {bp.cfg.diag_procs: m.t_solve
                for bp, m in zip(base_points, (yield base_points))}

    # stage 2: the killed runs
    tasks: List[SweepPoint] = []
    for p in diag_procs:
        for nf in failure_counts:
            for seed in seeds:
                cfg = _cfg(p)
                kills = plan_failures(cfg, nf,
                                      max(t_solves[p] * 0.5, 1e-9),
                                      seed=seed)
                tasks.append(SweepPoint(cfg, machine, kills=tuple(kills)))
    metrics = iter((yield tasks))

    points = []
    for p in diag_procs:
        for nf in failure_counts:
            t_list, t_rec, cores = 0.0, 0.0, 0
            phases: Dict[str, float] = {}
            for seed in seeds:
                m = next(metrics)
                t_list += m.t_detect
                t_rec += m.t_reconstruct
                cores = m.world_size
                merge_phases(phases, m.phase_breakdown)
            points.append(Fig8Point(cores, nf, t_list / len(seeds),
                                    t_rec / len(seeds),
                                    scale_phases(phases, len(seeds))))
    return points


def format_fig8(points: List[Fig8Point]) -> str:
    rows = [[pt.cores, pt.n_failures, pt.t_failed_list, pt.t_reconstruct]
            for pt in points]
    return format_table(
        ["cores", "failures", "failed-list(s)", "reconstruct(s)"], rows,
        title="Fig. 8: failure identification (a) and communicator "
              "reconstruction (b) wall times")
