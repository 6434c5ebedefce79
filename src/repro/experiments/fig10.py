"""Fig. 10: average approximation error of the combined solution.

Real numerics: the 2D advection problem is integrated on every sub-grid,
1..5 grids are declared lost (simulated failures, as in the paper), each
technique recovers, and the l1 error of the final combined solution against
the analytic solution is averaged over seeds (the paper averages 20
experiments).

Expected shape: CR flat (exact recovery); RC and AC grow with losses; AC
*more accurate* than RC (the paper's surprising headline); both within
about a factor of 10 of the baseline up to 5 lost grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..core import AppConfig, choose_lost_grids_for_scheme
from ..ft.recovery import TECHNIQUES
from ..machine.presets import IDEAL
from ..sweep import SweepPoint, planned
from .report import format_table, merge_phases, scale_phases

TECH_CODES = tuple(TECHNIQUES)


@dataclass
class Fig10Point:
    technique: str
    n_lost: int
    error_l1: float
    baseline_l1: float
    #: per-phase critical-path seconds, seed-averaged
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        return self.error_l1 / self.baseline_l1 if self.baseline_l1 else 0.0


QUICK = dict(n=7, steps=32, seeds=(0, 1, 2))
FULL = dict(n=9, steps=128, seeds=tuple(range(10)))


@planned
def run_fig10(*, n: int = 7, level: int = 4, steps: int = 32,  # repro: cacheable
              diag_procs: int = 2, lost_counts: Sequence[int] = (0, 1, 2, 3, 4, 5),
              seeds: Sequence[int] = tuple(range(5)), machine=IDEAL,
              checkpoint_count: int = 4):
    def _cfg(code, lost):
        return AppConfig(n=n, level=level, technique_code=code,
                         steps=steps, diag_procs=diag_procs,
                         checkpoint_count=checkpoint_count,
                         simulated_lost_gids=lost)

    tasks: List[SweepPoint] = []
    for code in TECH_CODES:
        scheme = _cfg(code, ()).scheme()   # once per technique
        for n_lost in lost_counts:
            for seed in seeds:
                lost = choose_lost_grids_for_scheme(
                    scheme, code, n_lost, seed=seed) if n_lost else ()
                tasks.append(SweepPoint(_cfg(code, lost), machine))
                if n_lost == 0:
                    break  # deterministic without losses
    metrics = iter((yield tasks))

    points = []
    for code in TECH_CODES:
        baseline = None
        for n_lost in lost_counts:
            errs = []
            phases: Dict[str, float] = {}
            for seed in seeds:
                m = next(metrics)
                errs.append(m.error_l1)
                merge_phases(phases, m.phase_breakdown)
                if n_lost == 0:
                    break
            avg = sum(errs) / len(errs)
            if baseline is None:
                baseline = avg
            points.append(Fig10Point(code, n_lost, avg, baseline,
                                     scale_phases(phases, len(errs))))
    return points


def format_fig10(points: List[Fig10Point]) -> str:
    rows = [[p.technique, p.n_lost, p.error_l1, p.ratio] for p in points]
    return format_table(
        ["tech", "lost", "l1 error", "vs baseline"], rows,
        title="Fig. 10: average l1 approximation error of the combined "
              "solution", floatfmt="12.4e")
