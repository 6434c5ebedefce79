"""Table I: beta Open MPI 3.1 ULFM operation wall times, two failed processes.

For each core count the application is run with two real mid-computation
kills; the reconstruction protocol's per-operation timers are read back
from rank 0's metrics.  The sweep layout reproduces the paper's exact core
counts 19/38/76/152/304 from diagonal process counts 4/8/16/32/64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core import AppConfig, plan_failures
from ..machine.presets import OPL
from ..sweep import SweepPoint, planned
from .report import format_table

#: the paper's measurements (cores -> spawn, shrink, agree, merge seconds)
PAPER_TABLE1: Dict[int, Tuple[float, float, float, float]] = {
    19: (0.01, 0.01, 0.49, 0.01),
    38: (4.19, 2.46, 0.51, 0.01),
    76: (60.75, 43.35, 1.03, 0.02),
    152: (86.45, 50.80, 2.36, 0.02),
    304: (112.61, 55.57, 12.83, 0.03),
}

#: diagonal process counts whose sweep layouts hit the paper's core counts
SWEEP_DIAG_PROCS: Tuple[int, ...] = (4, 8, 16, 32, 64)


@dataclass
class Table1Row:
    cores: int
    spawn: float
    shrink: float
    agree: float
    merge: float
    #: per-phase critical-path seconds for the run
    phases: Dict[str, float] = field(default_factory=dict)


# the quick variant is the full one: five runs at the paper's core counts
QUICK = FULL = dict(steps=8, diag_procs=SWEEP_DIAG_PROCS)


@planned
def run_table1(*, n: int = 7, level: int = 4, steps: int = 8,  # repro: cacheable
               diag_procs: Sequence[int] = SWEEP_DIAG_PROCS,
               n_failures: int = 2, seed: int = 0, machine=OPL):
    def _cfg(p):
        return AppConfig(n=n, level=level, technique_code="CR", steps=steps,
                         diag_procs=p, layout_mode="sweep",
                         checkpoint_count=2)

    # baselines first (identical to fig8's — a shared cache dedups them),
    # then the two-failure runs
    base_points = [SweepPoint(_cfg(p), machine) for p in diag_procs]
    t_solves = {bp.cfg.diag_procs: m.t_solve
                for bp, m in zip(base_points, (yield base_points))}
    tasks = []
    for p in diag_procs:
        cfg = _cfg(p)
        kills = plan_failures(cfg, n_failures,
                              max(t_solves[p] * 0.5, 1e-9), seed=seed)
        tasks.append(SweepPoint(cfg, machine, kills=tuple(kills)))

    rows = []
    for m in (yield tasks):
        rows.append(Table1Row(m.world_size, m.t_spawn, m.t_shrink,
                              m.t_agree, m.t_merge,
                              dict(m.phase_breakdown)))
    return rows


def format_table1(rows: List[Table1Row]) -> str:
    out_rows = []
    for r in rows:
        paper = PAPER_TABLE1.get(r.cores)
        prow = [r.cores, r.spawn, r.shrink, r.agree, r.merge]
        if paper:
            prow += list(paper)
        else:
            prow += ["-"] * 4
        out_rows.append(prow)
    return format_table(
        ["cores", "spawn", "shrink", "agree", "merge",
         "p.spawn", "p.shrink", "p.agree", "p.merge"],
        out_rows,
        title="Table I: ULFM op wall times (s), 2 process failures "
              "[measured vs paper]")
