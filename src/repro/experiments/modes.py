"""Recovery-mode comparison: respawn vs shrink-in-place vs non-collective.

The paper repairs every failure with the global respawn pipeline
(Figs. 3/5).  This experiment puts the two alternative modes
(:mod:`repro.ft.strategy`) through the same kill sweep and compares,
per (recovery mode x data-recovery technique):

* total wall time against the mode's own failure-free baseline;
* the repair-time split (shrink / spawn / agree / merge — shrink mode
  never spawns or merges, the non-collective mode repairs sub-grid-sized
  communicators);
* the l1 error of the final combined solution (shrink mode trades
  accuracy for repair speed when a contracted grid drops out of the
  combination under RC/AC).

Kills are deterministic, not seeded: victim k is the last rank of the
k-th multi-member grid group, so the same plan is legal in every mode —
rank 0 survives (respawn convention), every grid keeps a survivor (the
non-collective mode cannot rebuild a fully-lost grid), and no RC
replica pair fails together.  Multi-failure plans kill simultaneously
in distinct grids, exercising concurrent per-grid repairs in the
non-collective mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..core import AppConfig
from ..ft.failure_injection import Kill
from ..ft.recovery import TECHNIQUES
from ..ft.strategy import STRATEGIES
from ..machine.presets import OPL
from ..sweep import SweepPoint, planned
from .report import format_table, merge_phases

RECOVERY_MODES = tuple(STRATEGIES)
TECH_CODES = tuple(TECHNIQUES)


@dataclass
class ModesPoint:
    mode: str
    technique: str
    n_failures: int
    world_size: int
    t_total: float
    t_reconstruct: float
    t_recovery: float
    error_l1: float
    #: failure-free t_total of the same (mode, technique) configuration
    baseline_total: float
    #: per-phase critical-path seconds
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def overhead(self) -> float:
        """Total-time multiplier over the failure-free baseline."""
        return self.t_total / self.baseline_total if self.baseline_total \
            else 0.0


def mode_kill_plan(cfg: AppConfig, n_failures: int, at: float) -> List[Kill]:
    """Deterministic kill plan legal under *every* recovery mode.

    One victim per grid, chosen as the highest rank of the next grid
    group with at least two members (so rank 0 — the first member of the
    first group — is never picked and every grid keeps a survivor).
    Under RC, grids whose resample partner already lost a member are
    skipped.  All kills fire at the same instant ``at``.
    """
    layout = cfg.layout()
    scheme = cfg.scheme()
    conflicts = scheme.rc_conflict_pairs() \
        if cfg.technique_code.upper() == "RC" else []
    partner = {}
    for a, b in conflicts:
        partner.setdefault(a, set()).add(b)
        partner.setdefault(b, set()).add(a)
    kills: List[Kill] = []
    hit: List[int] = []
    for g in (grid.gid for grid in scheme.grids):
        if len(kills) >= n_failures:
            break
        ranks = layout.group_ranks(g)
        if len(ranks) < 2:
            continue  # a sole member must survive for the nc mode
        if partner.get(g, set()) & set(hit):
            continue  # RC: never fail a replica pair together
        kills.append(Kill(rank=ranks[-1], at=at))
        hit.append(g)
    if len(kills) < n_failures:
        raise ValueError(
            f"layout has only {len(kills)} grid group(s) eligible for a "
            f"mode-portable kill; requested {n_failures} failures")
    return kills


QUICK = dict(n=6, steps=16, diag_procs=2, failure_counts=(1, 2))
FULL = dict(n=7, steps=32, diag_procs=4, failure_counts=(1, 2, 3))


@planned
def run_modes(*, n: int = 6, level: int = 4, steps: int = 16,  # repro: cacheable
              diag_procs: int = 2, checkpoint_count: int = 4,
              failure_counts: Sequence[int] = (1, 2),
              techniques: Sequence[str] = TECH_CODES,
              modes: Sequence[str] = RECOVERY_MODES,
              machine=OPL):
    def _cfg(mode, code):
        return AppConfig(n=n, level=level, technique_code=code,
                         recovery_mode=mode, steps=steps,
                         diag_procs=diag_procs,
                         checkpoint_count=checkpoint_count)

    # stage 1: per-(mode, technique) failure-free baselines — the modes
    # differ even without failures (detection collectives, the nc world
    # resync), so each configuration is normalised against itself
    base_points = [SweepPoint(_cfg(mode, code), machine)
                   for mode in modes for code in techniques]
    baselines = {(bp.cfg.recovery_mode, bp.cfg.technique_code): m
                 for bp, m in zip(base_points, (yield base_points))}

    # stage 2: the killed runs, each kill placed mid-solve of its own
    # baseline (checkpoint writes stretch CR's solve, so the kill time is
    # per-technique, never shared across columns)
    tasks: List[SweepPoint] = []
    for mode in modes:
        for code in techniques:
            base = baselines[(mode, code)]
            at = max(base.t_solve * 0.5, 1e-9)
            for nf in failure_counts:
                kills = mode_kill_plan(_cfg(mode, code), nf, at)
                tasks.append(SweepPoint(_cfg(mode, code), machine,
                                        kills=tuple(kills)))
    metrics = iter((yield tasks))

    points = []
    for mode in modes:
        for code in techniques:
            base = baselines[(mode, code)]
            points.append(ModesPoint(
                mode, code, 0, base.world_size, base.t_total,
                base.t_reconstruct, base.t_recovery, base.error_l1,
                base.t_total, dict(base.phase_breakdown)))
            for nf in failure_counts:
                m = next(metrics)
                phases: Dict[str, float] = {}
                merge_phases(phases, m.phase_breakdown)
                points.append(ModesPoint(
                    mode, code, nf, m.world_size, m.t_total,
                    m.t_reconstruct, m.t_recovery, m.error_l1,
                    base.t_total, phases))
    return points


def format_modes(points: List[ModesPoint]) -> str:
    rows = [[p.mode, p.technique, p.n_failures, p.world_size, p.t_total,
             p.overhead, p.t_reconstruct, p.t_recovery, p.error_l1]
            for p in points]
    return format_table(
        ["mode", "tech", "fails", "ranks", "total(s)", "vs base",
         "repair(s)", "recover(s)", "l1 error"], rows,
        title="Recovery-mode comparison: respawn vs shrink-in-place vs "
              "non-collective repair", floatfmt="10.4g")
