"""Fig. 9: failed-grid data-recovery overhead (a) and process-time
data-recovery overhead (b).

Setup mirrors the paper: level 4, the Fig. 9 process layout (8 per
diagonal/duplicate grid, 4 per lower, 2/1 per extra layer), *simulated*
(non-real) failures of 1..5 grids — "the results do not include faulty
communicator reconstruction time" — on both OPL (T_I/O = 3.52 s) and
Raijin (T_I/O = 0.03 s).

Overheads per technique (Sec. III-B):

* CR — all checkpoint writes + reading the recent checkpoint + recomputation;
* RC — copying and/or resampling grid data from the redundant grids;
* AC — only creating the new combination coefficients.

Panel (b) applies the paper's process-time normalisation:

    T'rec,c = C*T_IO + Trec,c                       (per process, P_c procs)
    T'rec,r = (Trec,r*P_r + Tapp,r*(P_r - P_c)) / P_c
    T'rec,a = (Trec,a*P_a + Tapp,a*(P_a - P_c)) / P_c

charging RC and AC for their extra processes relative to CR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core import AppConfig, choose_lost_grids_for_scheme
from ..ft.recovery import TECHNIQUES
from ..machine.presets import OPL, RAIJIN
from ..sweep import SweepPoint, planned
from .report import format_table, merge_phases, scale_phases

TECH_CODES = tuple(TECHNIQUES)


@dataclass
class Fig9Point:
    machine: str
    technique: str
    n_lost: int
    recovery_overhead: float       #: Fig. 9a
    process_time_overhead: float   #: Fig. 9b
    world_size: int
    t_app: float
    #: per-phase critical-path seconds, seed-averaged
    phases: Dict[str, float] = field(default_factory=dict)


def _config(code: str, n: int, level: int, steps: int, diag_procs: int,
            lost: Tuple[int, ...], checkpoint_count,
            compute_scale: float = 1.0) -> AppConfig:
    return AppConfig(n=n, level=level, technique_code=code, steps=steps,
                     diag_procs=diag_procs, layout_mode="paper",
                     checkpoint_count=checkpoint_count,
                     simulated_lost_gids=lost, compute_scale=compute_scale)


def recovery_overhead(m) -> float:
    """Fig. 9a overhead from one run's metrics."""
    if m.technique == "CR":
        return m.checkpoint_write_time + m.t_recovery
    return m.t_recovery


QUICK = dict(n=7, steps=16, seeds=(0,))
# The paper-scale timing regime.  The paper's Fig. 9b result set — CR
# worst / AC best on OPL, CR *best* on Raijin — emerges only when the
# application time is large enough to amortise checkpointing on a fast
# disk (the paper runs n=13 for 2^13 steps).  ``compute_scale`` raises the
# virtual per-step cost to that regime (t_app ~ 10 s) without paying the
# full numerics, and checkpoint counts are machine-optimal
# (``checkpoint_count=None``) as a real deployment would choose them.
FULL = dict(n=9, level=4, steps=256, diag_procs=8, seeds=(0,),
            checkpoint_count=None, compute_scale=600.0)


@planned
def run_fig9(*, n: int = 7, level: int = 4, steps: int = 16,  # repro: cacheable
             diag_procs: int = 8, lost_counts: Sequence[int] = (1, 2, 3, 4, 5),
             seeds: Sequence[int] = (0, 1, 2),
             machines=(OPL, RAIJIN), checkpoint_count=4,
             compute_scale: float = 1.0):
    # lost-grid sets depend only on the scheme (derived once per
    # technique), not on the machine or per-seed probe configs
    lost_sets: Dict[Tuple[str, int, int], Tuple[int, ...]] = {}
    for code in TECH_CODES:
        scheme = _config(code, n, level, steps, diag_procs, (),
                         checkpoint_count).scheme()
        for n_lost in lost_counts:
            for seed in seeds:
                lost_sets[code, n_lost, seed] = choose_lost_grids_for_scheme(
                    scheme, code, n_lost, seed=seed)

    tasks: List[SweepPoint] = []
    for machine in machines:
        for code in TECH_CODES:
            for n_lost in lost_counts:
                for seed in seeds:
                    cfg = _config(code, n, level, steps, diag_procs,
                                  lost_sets[code, n_lost, seed],
                                  checkpoint_count, compute_scale)
                    tasks.append(SweepPoint(cfg, machine))
    metrics = iter((yield tasks))

    points = []
    for machine in machines:
        # the CR process count P_c anchors the normalisation
        p_c = _config("CR", n, level, steps, diag_procs, (),
                      checkpoint_count).layout().total_procs
        for code in TECH_CODES:
            for n_lost in lost_counts:
                oh, pt, world, tapp = 0.0, 0.0, 0, 0.0
                phases: Dict[str, float] = {}
                for seed in seeds:
                    m = next(metrics)
                    rec = recovery_overhead(m)
                    t_app = m.t_app_excl_reconstruct
                    p_x = m.world_size
                    if code == "CR":
                        norm = rec
                    else:
                        norm = (rec * p_x + t_app * (p_x - p_c)) / p_c
                    oh += rec
                    pt += norm
                    world = p_x
                    tapp += t_app
                    merge_phases(phases, m.phase_breakdown)
                k = len(seeds)
                points.append(Fig9Point(machine.name, code, n_lost, oh / k,
                                        pt / k, world, tapp / k,
                                        scale_phases(phases, k)))
    return points


def format_fig9(points: List[Fig9Point]) -> str:
    rows = [[p.machine, p.technique, p.n_lost, p.recovery_overhead,
             p.process_time_overhead, p.world_size] for p in points]
    return format_table(
        ["machine", "tech", "lost", "recovery(s)", "proc-time(s)", "procs"],
        rows,
        title="Fig. 9: data recovery overhead (a) and process-time "
              "overhead (b)", floatfmt="12.5f")
