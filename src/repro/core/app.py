"""The fault-tolerant sparse-grid-combination advection application.

This is the paper's application, end to end:

* every world rank belongs to one sub-grid's process group (the layout),
  solves its share of that grid with the domain-decomposed Lax–Wendroff
  stepper, and participates in the gather–scatter combination;
* process failures (injected kills) surface as MPI errors during stepping
  or at the dedicated detection points; the application then runs the
  Fig. 3/5 reconstruction protocol — re-spawned replacements execute this
  very same entry point, take the child branch of the protocol, regain
  their predecessor's rank, and continue the run;
* lost sub-grid data is recovered by the configured technique:
  Checkpoint/Restart (restore + recompute), Resampling-and-Copying
  (replica copy / fine-grid resample) or Alternate Combination (new
  combination coefficients + post-combination sample).

Both *real* failures (actual kills, Figs. 8/11, Table I) and *simulated*
losses (grids declared lost at the end, Figs. 9/10 — the paper does the
same) are supported.

This module is the *phase driver* only: solve → detect → repair → recover
→ combine, plus the per-run state those phases share.  *How* the world is
repaired (``cfg.recovery_mode``) is the body of a
:class:`~repro.ft.strategy.RecoveryStrategy` — the paper's global respawn
pipeline, shrink-in-place, or the non-collective per-grid rebuild — and
*how* lost data comes back (``cfg.technique_code``) is the body of a
:class:`~repro.ft.recovery.RecoveryTechnique`.  The driver calls their
hooks and never asks which one it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..ft.checkpoint import CheckpointStats, Disk, write_checkpoint
from ..ft.reconstruct import PLACE_SAME_HOST, ReconstructTimers
from ..ft.recovery import RecoveryTechnique, technique_by_code
from ..mpi.errors import MPIError
from ..pde.advection import AdvectionProblem
from ..pde.decomposition import choose_dims
from ..pde.norms import l1, l2, linf
from ..pde.parallel_solver import DistributedAdvectionSolver
from ..sparsegrid.interpolation import axis_points
from ..sparsegrid.parallel_combine import combine_on_root
from .layout import Layout, layout_for
from .metrics import RunMetrics


@dataclass
class AppConfig:
    """One run's configuration.  Passed (by reference) as the argv of every
    launched *and re-spawned* process, exactly like the paper re-launches
    ``./ApplicationName argv``."""

    n: int = 7
    level: int = 4
    technique_code: str = "CR"
    #: how the world is repaired after a failure: "respawn" (the paper's
    #: Figs. 3/5 pipeline), "shrink" (shrink-in-place) or "nc"
    #: (non-collective per-grid repair) — see :mod:`repro.ft.strategy`
    recovery_mode: str = "respawn"
    steps: int = 32
    diag_procs: int = 4
    layout_mode: str = "paper"          #: "paper" (Fig. 9) or "sweep" (Table I)
    cfl: float = 0.4
    problem: AdvectionProblem = field(default_factory=AdvectionProblem)
    #: checkpoints over the run (CR); None = machine-optimal (Young)
    checkpoint_count: Optional[int] = 4
    placement: str = PLACE_SAME_HOST
    simulated_lost_gids: Tuple[int, ...] = ()
    disk: Optional[Disk] = None
    collect_arrays: bool = False
    extra_layers: int = 2               #: AC redundancy depth
    #: virtual-compute multiplier per step (timing-shape experiments model
    #: the paper's full problem scale without paying its numerics)
    compute_scale: float = 1.0
    #: each sub-grid's process grid: "1d" a ring of slabs along the longer
    #: axis, "2d" balanced Cartesian blocks (``pde.decomposition.choose_dims``)
    decomposition: str = "1d"

    def estimated_solve_time(self, machine) -> float:
        """Analytic estimate of the failure-free solve time on ``machine``
        (used to pick checkpoint counts before the run; deterministic and
        identical on every rank)."""
        from ..pde.lax_wendroff import FLOPS_PER_POINT
        layout = self.layout()
        per_proc = max(
            ((1 << a.index[0]) * (1 << a.index[1])) / a.n_procs
            for a in layout.assignments)
        flops = FLOPS_PER_POINT * per_proc * self.steps * self.compute_scale
        return machine.compute_cost(flops)

    def strategy(self):
        from ..ft.strategy import strategy_by_mode
        return strategy_by_mode(self.recovery_mode)

    def technique(self) -> RecoveryTechnique:
        return technique_by_code(self.technique_code, self.extra_layers)

    def scheme(self):
        return self.technique().make_scheme(self.n, self.level)

    def layout(self, scheme=None) -> Layout:
        """The launch layout of ``scheme`` (default: :meth:`scheme`).
        Schemes are shared cached instances, so the identity-keyed layout
        cache collapses repeated builds across a sweep."""
        return layout_for(self.scheme() if scheme is None else scheme,
                          self.layout_mode, self.diag_procs)

    @property
    def target(self) -> Tuple[int, int]:
        return (self.n, self.n)


async def app_main(ctx):
    """Entry point for every rank — initial launch and re-spawn alike."""
    cfg: AppConfig = ctx.argv[0]
    return await CombinationApp(ctx, cfg).run()


class CombinationApp:
    """Per-rank application object: the run's state and its phase driver."""

    #: what a repair re-launches (the paper's ``./ApplicationName argv``);
    #: the strategies reach the entry point through the app
    entry = staticmethod(app_main)

    def __init__(self, ctx, cfg: AppConfig):
        self.ctx = ctx
        self.cfg = cfg
        self.technique = cfg.technique()
        self.strategy = cfg.strategy()
        self.scheme = self.technique.make_scheme(cfg.n, cfg.level)
        self.layout = cfg.layout(self.scheme)
        #: the launch-time layout; after a shrink-in-place repair
        #: ``self.layout`` is its :meth:`~Layout.survivors` layout
        self.base_layout = self.layout
        self.timers = ReconstructTimers()
        #: repair seconds reported in place of this rank's own span totals
        #: (``nc``: the slowest grid's, set by ``world_resync``)
        self.repair_seconds: Dict[str, float] = {}
        #: the phase times and coefficients this rank records; world rank
        #: 0 reports them in the run's :class:`RunMetrics`
        self.t_solve, self.t_recovery, self.t_combine = 0.0, 0.0, 0.0
        self.coefficients: Dict = {}
        self.cr_stats = CheckpointStats()
        self.world = None
        self.grid_comm = None
        self.solver: Optional[DistributedAdvectionSolver] = None
        self.gid = -1
        self.lost: List[int] = []
        self.dt = cfg.problem.stable_dt(cfg.n, cfg.cfl)
        if cfg.checkpoint_count is None:
            from ..ft.checkpoint import optimal_checkpoint_count
            est = cfg.estimated_solve_time(ctx.machine)
            self.checkpoint_count = optimal_checkpoint_count(
                est, ctx.machine.t_io)
        else:
            self.checkpoint_count = cfg.checkpoint_count

    # ------------------------------------------------------------------
    async def run(self):
        ctx, cfg = self.ctx, self.cfg
        targets = self.technique.segment_targets(cfg.steps,
                                                 self.checkpoint_count)
        if ctx.get_parent() is not None:
            # Re-spawned replacement: rejoin through the strategy's child
            # branch, then enter the failure branch of the segment the
            # survivors are executing (they match these collectives).  The
            # agreed horizon — NOT the local step count — filters the
            # remaining segments: if this very recompute is interrupted by
            # another failure the step count stalls, but the segment
            # schedule (one detection point per boundary) marches on for
            # everyone.
            if not await self.strategy.child_join(self):
                return None  # orphan of an aborted repair attempt
            horizon = await self.technique.on_failure(self, None)
            await self._segment_loop(targets, horizon)
        else:
            self.world = ctx.comm
            if self.world.size != self.layout.total_procs:
                raise ValueError(
                    f"launched {self.world.size} ranks but layout needs "
                    f"{self.layout.total_procs}")
            self.gid = self.layout.gid_of(self.world.rank)
            self.grid_comm = await self.world.split(self.gid, self.world.rank)
            self._make_solver()
            t0 = ctx.wtime()
            await self._segment_loop(targets)
            self.t_solve = ctx.wtime() - t0

        await self.strategy.world_resync(self)
        if cfg.simulated_lost_gids and not self.lost:
            self.lost = sorted(set(cfg.simulated_lost_gids))
        await self._recovery_phase()
        combined = await self._combination_phase()
        return self._finish(combined)

    # ------------------------------------------------------------------
    # state the strategies and techniques share
    # ------------------------------------------------------------------
    def _make_solver(self):
        sub = self.scheme[self.gid]
        dims = choose_dims(self.grid_comm.size, sub.level_x, sub.level_y,
                           self.cfg.decomposition)
        self.solver = DistributedAdvectionSolver(
            self.ctx, self.grid_comm, self.cfg.problem, sub.level_x,
            sub.level_y, self.dt, compute_scale=self.cfg.compute_scale,
            dims=dims)

    def fold_failed(self, views: Iterable[Iterable[int]]) -> None:
        """Fold every rank's view of the failed ranks (launch-time world
        numbering) into the failure history and the lost-grid set, so
        replacements report the same history as survivors."""
        ranks = set().union(*views)
        t = self.timers
        t.failed_ranks[:] = sorted(ranks.union(t.failed_ranks))
        self.mark_lost(self.base_layout.grids_of_ranks(ranks))

    def mark_lost(self, gids: Iterable[int]) -> None:
        """Add grids whose data must come back through the technique."""
        self.lost[:] = sorted(set(gids).union(self.lost))

    def disk(self) -> Disk:
        if self.cfg.disk is None:
            self.cfg.disk = Disk()
        return self.cfg.disk

    # ------------------------------------------------------------------
    # solve: segments, each closed by the strategy's detection point
    # ------------------------------------------------------------------
    async def _step_guarded(self, n: int) -> None:
        """Step the solver, converting a peer failure into a group-wide
        unblock: the rank that observes the error revokes the grid
        communicator so members blocked on halos from *other* ranks also
        escape (the standard ULFM revoke idiom — without it, only the dead
        rank's neighbours notice and the rest of the group hangs)."""
        if n <= 0:
            return
        try:
            await self.solver.step(n)
        except MPIError:
            self.grid_comm.revoke()

    async def _segment_loop(self, targets: List[int],
                            horizon: int = 0) -> None:
        """Per segment past ``horizon``: step to the boundary; run the
        detection point (the paper tests for failures "prior to initiating
        the checkpoint write"); on failure the technique's failure branch
        resyncs and brings the data back; otherwise a checkpointing
        technique writes its checkpoint.  RC and AC solve one segment — the
        whole run."""
        ctx, cfg = self.ctx, self.cfg
        for target in targets:
            if target <= horizon:
                continue
            with ctx.span("solve", technique=self.technique.code,
                          gid=self.gid):
                await self._step_guarded(target - self.solver.step_count)
            failed = await self.strategy.detect_and_repair(self)
            if failed:
                await self.technique.on_failure(self, target)
            elif target < cfg.steps and self.checkpoint_count > 0:
                await write_checkpoint(ctx, self.disk(), self.gid,
                                       self.grid_comm.rank, self.solver,
                                       self.cr_stats)

    # ------------------------------------------------------------------
    # recovery phase (lost-set already agreed by every rank)
    # ------------------------------------------------------------------
    async def _recovery_phase(self) -> None:
        ctx = self.ctx
        world = self.world
        await world.barrier()
        t0 = ctx.wtime()
        if self.lost:
            with ctx.span("recovery", technique=self.technique.code,
                          gid=self.gid, n_lost=len(self.lost)):
                await self.technique.recover(self)
        await world.barrier()
        self.t_recovery = ctx.wtime() - t0

    # ------------------------------------------------------------------
    # combination phase
    # ------------------------------------------------------------------
    async def _combination_phase(self):
        ctx, cfg = self.ctx, self.cfg
        world = self.world
        await world.barrier()
        t0 = ctx.wtime()
        with ctx.span("combine", technique=self.technique.code, gid=self.gid):
            coeffs = self.technique.combination_coefficients(self.scheme,
                                                             self.lost)
            self.coefficients = dict(coeffs)
            nodal = await self.solver.gather_nodal(0)
            parts = {}
            if self.technique.contributes(self, coeffs) and nodal is not None:
                parts[self.scheme[self.gid].index] = nodal
            combined = await combine_on_root(world, parts, coeffs, cfg.target,
                                             root=0)
            await self.technique.after_combine(self, combined)
        await world.barrier()
        self.t_combine = ctx.wtime() - t0
        # aggregate per-rank checkpoint accounting on rank 0: wall-clock
        # overheads are the slowest rank's (writes/restores run in parallel)
        stats = await world.gather(
            (self.cr_stats.writes, self.cr_stats.write_time,
             self.cr_stats.read_time, self.cr_stats.recompute_steps), root=0)
        if stats is not None:
            self.cr_stats.writes = max(s[0] for s in stats)
            self.cr_stats.write_time = max(s[1] for s in stats)
            self.cr_stats.read_time = max(s[2] for s in stats)
            self.cr_stats.recompute_steps = max(s[3] for s in stats)
        return combined

    # ------------------------------------------------------------------
    def _finish(self, combined):
        """World rank 0's :class:`RunMetrics`; None on every other rank."""
        if self.world.rank != 0:
            return None
        ctx, cfg = self.ctx, self.cfg
        m = RunMetrics(
            technique=self.technique.code, recovery_mode=self.strategy.mode,
            machine=ctx.machine.name, n=cfg.n, level=cfg.level,
            steps=cfg.steps, dt=self.dt,
            world_size=self.base_layout.total_procs,
            t_solve=self.t_solve, t_recovery=self.t_recovery,
            t_combine=self.t_combine, coefficients=self.coefficients)
        m.absorb_repair(self.timers, {**ctx.spent(), **self.repair_seconds})
        m.lost_gids = list(self.lost)
        m.real_failures = bool(self.timers.failed_ranks)
        m.checkpoint_writes = self.cr_stats.writes
        m.checkpoint_write_time = self.cr_stats.write_time
        m.checkpoint_read_time = self.cr_stats.read_time
        m.recompute_steps = self.cr_stats.recompute_steps
        m.t_total = ctx.wtime()
        t_end = cfg.steps * self.dt
        tx, ty = cfg.target
        xs = axis_points(tx)
        ys = axis_points(ty)
        d = combined - cfg.problem.exact(xs, ys, t_end)
        m.error_l1, m.error_l2, m.error_linf = l1(d), l2(d), linf(d)
        if cfg.collect_arrays:
            m.combined = combined
        return m
