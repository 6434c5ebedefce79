"""Run orchestration: build a universe, launch the app, inject failures.

This is the harness layer the experiments and benchmarks drive.  A run is
fully deterministic given (config, machine, kill plan/seed).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..ft.checkpoint import Disk
from ..ft.failure_injection import FailureGenerator, Kill
from ..machine import Hostfile, MachineSpec
from ..machine.presets import OPL
from ..mpi.universe import Universe
from .app import AppConfig, app_main
from .metrics import RunMetrics


def make_universe(cfg: AppConfig, machine: MachineSpec = OPL,
                  n_spares: int = 0) -> Tuple[Universe, int]:
    """A universe sized for the config's layout (plus optional spare nodes)."""
    total = cfg.layout().total_procs
    hostfile = Hostfile.for_ranks(total, slots=machine.cores_per_node,
                                  n_spares=n_spares)
    return Universe(machine, hostfile=hostfile), total


def run_app(cfg: AppConfig, machine: MachineSpec = OPL, *,
            kills: Sequence[Kill] = (), n_spares: int = 0,
            tracer=None) -> RunMetrics:
    """Execute one application run and return rank 0's metrics.

    ``tracer`` (a :class:`~repro.mpi.tracing.Tracer`) records the MPI
    event stream for offline analysis (``python -m repro analyze-trace``).
    """
    if cfg.technique_code.upper() == "CR" and cfg.disk is None:
        cfg.disk = Disk()
    universe, total = make_universe(cfg, machine, n_spares)
    universe.tracer = tracer
    job = universe.launch(total, app_main, argv=(cfg,))
    if kills:
        gen = FailureGenerator()  # only used for injection here
        gen.inject(universe, job, kills)
    universe.run()
    metrics = job.results()[0]
    if metrics is None:
        # Rank 0 itself was killed: its re-spawned replacement took over
        # world rank 0 (Fig. 7 rank restoration) and returned the metrics
        # from a later spawn job.
        candidates = [r for j in universe.jobs for r in j.results()
                      if isinstance(r, RunMetrics)]
        metrics = candidates[-1] if candidates else None
    if metrics is None:
        raise RuntimeError("rank 0 produced no metrics (killed?)")
    # attach the recovery-phase observability: critical-path seconds per
    # phase (max over ranks — phases run concurrently) and per grid
    metrics.phase_breakdown = universe.spans.phase_totals()
    metrics.phase_by_grid = universe.spans.by_label("gid")
    universe.close()
    return metrics


def plan_failures(cfg: AppConfig, n_failures: int, at: float,
                  seed: int = 0) -> List[Kill]:
    """Constraint-respecting random kill plan for this config.

    Applies the paper's rules: rank 0 immortal; under RC no replica pair
    may be lost together.
    """
    layout = cfg.layout()
    pairs = layout.conflict_pairs_ranks() \
        if cfg.technique_code.upper() == "RC" else ()
    gen = FailureGenerator(seed, protect={0}, conflict_pairs=pairs,
                           rank_to_grid=layout.gid_of)
    return gen.plan(layout.total_procs, n_failures, at)


def baseline_solve_time(cfg: AppConfig, machine: MachineSpec = OPL) -> float:
    """Virtual solve time of a failure-free run (used to place kills
    mid-computation, as the paper's injector fires "at some point before
    the combination")."""
    from dataclasses import replace
    quiet = replace(cfg, simulated_lost_gids=(), disk=None)
    metrics = run_app(quiet, machine)
    return metrics.t_solve


def choose_lost_grids_for_scheme(scheme, technique_code: str, n_lost: int,
                                 seed: int = 0) -> Tuple[int, ...]:
    """Random set of grids to declare lost in simulated-failure runs,
    honouring the RC replica-pair constraint.

    Takes the scheme directly so sweep drivers can derive it once per
    technique instead of building a probe config per seed."""
    import random
    rng = random.Random(seed)
    eligible = [g.gid for g in scheme.grids]
    conflicts = scheme.rc_conflict_pairs() \
        if technique_code.upper() == "RC" else []
    for _ in range(10_000):
        chosen = sorted(rng.sample(eligible, n_lost))
        bad = any(a in chosen and b in chosen for a, b in conflicts)
        if not bad:
            return tuple(chosen)
    raise RuntimeError("no valid lost-grid set found")


def choose_lost_grids(cfg: AppConfig, n_lost: int, seed: int = 0) -> Tuple[int, ...]:
    """Config-flavoured wrapper around :func:`choose_lost_grids_for_scheme`."""
    return choose_lost_grids_for_scheme(cfg.scheme(), cfg.technique_code,
                                        n_lost, seed)
