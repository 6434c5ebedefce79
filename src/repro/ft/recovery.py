"""The three data-recovery techniques: what each one does, end to end.

Each technique decides (a) which redundant grids the scheme carries,
(b) where the solve is cut into segments and what happens when a
segment's detection point repaired the world, (c) how lost grid data comes
back in the recovery phase, and (d) which coefficients and which grids
enter the combination, and what follows it.  A technique object is
stateless and shared; the run's state (communicators, solver, lost set,
checkpoint accounting) lives on the ``app`` —
:class:`~repro.core.app.CombinationApp`, the phase driver — that every
hook receives.  *Which* communicator a repair synchronised on is the
recovery strategy's business (:mod:`repro.ft.strategy`); a technique only
asks it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..mpi.comm import MAX
from ..mpi.errors import MPIError
from ..pde.decomposition import choose_dims
from ..pde.lax_wendroff import periodic_from_nodal
from ..sparsegrid import CombinationScheme, combination_coefficients
from ..sparsegrid.index import cached_scheme
from ..sparsegrid.parallel_combine import scatter_samples
from .checkpoint import checkpoint_interval_steps, restore_checkpoint

GridIx = Tuple[int, int]

#: base tag for recovery data motion (offset by destination gid)
RECOVERY_TAG = 7000

#: virtual flops charged for computing one set of alternate coefficients
#: (a Möbius sum over the scheme's small index lattice)
AC_COEFF_FLOPS = 2.0e4


def restrict_periodic(arr: np.ndarray, src_ix: GridIx,
                      dst_ix: GridIx) -> np.ndarray:
    """Exact restriction of a periodic (no duplicated boundary) array."""
    dx, dy = src_ix[0] - dst_ix[0], src_ix[1] - dst_ix[1]
    if dx < 0 or dy < 0:
        raise ValueError(f"cannot restrict {src_ix} onto finer {dst_ix}")
    return np.ascontiguousarray(arr[::1 << dx, ::1 << dy])


class RecoveryTechnique:
    """Base class; subclasses are stateless and safe to share."""

    code: str = "?"
    name: str = "?"
    #: does a lost grid get its data back before the combination?  (AC
    #: combines without it instead, so shrink mode takes no donor for it)
    restores_lost_grids: bool = True

    def make_scheme(self, n: int, level: int) -> CombinationScheme:
        raise NotImplementedError

    def segment_targets(self, steps: int, checkpoint_count: int) -> List[int]:
        """Step counts at which the solve stops for a detection point."""
        return [steps]

    async def on_failure(self, app, target: Optional[int]) -> int:
        """A detection point repaired the world: resync.  Lost data comes
        back in the recovery phase.  Returns the boundary the run resumes
        from — there is one segment, so its end."""
        await app.strategy.post_repair(app)
        return app.cfg.steps

    async def recover(self, app) -> None:
        """Recovery phase: bring back the data of ``app.lost`` (agreed by
        every rank; non-empty)."""
        raise NotImplementedError

    def contributes(self, app, coeffs: Dict[GridIx, float]) -> bool:
        """Does this rank's grid supply data to the combination?

        Group roots of grids whose index carries a non-zero coefficient
        contribute.  When an index appears twice (diagonal + duplicate),
        the primary contributes unless lost."""
        sub = app.scheme[app.gid]
        if app.grid_comm.rank != 0 or coeffs.get(sub.index, 0.0) == 0.0:
            return False
        if sub.role == "duplicate":
            # only step in when the primary copy is lost
            return sub.partner in app.lost
        return True

    async def after_combine(self, app, combined) -> None:
        """Post-combination step, inside the ``combine`` span."""

    def combination_coefficients(self, scheme: CombinationScheme,
                                 lost_gids: Iterable[int]) -> Dict[GridIx, float]:
        """Coefficients (by grid index) for the final combination, shared
        and read-only.  Restored data combines classically; a technique
        that does not restore lost grids solves for the survivors."""
        return combination_coefficients(scheme, frozenset(
            () if self.restores_lost_grids else lost_gids))

    def validate_losses(self, scheme: CombinationScheme,
                        lost_gids: Iterable[int]) -> None:
        """Raise if this loss pattern violates the technique's constraints."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.__class__.__name__}()"


class CheckpointRestart(RecoveryTechnique):
    """CR: no redundant grids; exact recovery from periodic checkpoints."""

    code = "CR"
    name = "Checkpoint/Restart"

    def make_scheme(self, n: int, level: int) -> CombinationScheme:
        return cached_scheme(n, level)

    def segment_targets(self, steps, checkpoint_count):
        interval = checkpoint_interval_steps(steps, checkpoint_count)
        targets = list(range(interval, steps + 1, interval))
        if not targets or targets[-1] != steps:
            targets.append(steps)
        return targets

    async def on_failure(self, app, target):
        """The Checkpoint/Restart failure branch — the same body under
        every recovery mode: resync, agree on the recompute horizon (the
        boundary of the segment in which the failure was detected),
        restore the affected grids from their checkpoints and recompute.
        The strategy says only which communicator its repair synchronised:
        the world, or — non-collective mode — this grid alone, while every
        other grid keeps stepping its own segments.

        Every rank must agree on the horizon.  MAX-allreduce, not a rank-0
        broadcast: a replacement — for a dead rank 0, too — joins with
        ``target=None`` and would broadcast horizon 0, silently cancelling
        the recompute on every survivor."""
        grid_local = app.strategy.grid_local
        await app.strategy.post_repair(app)
        comm = app.grid_comm if grid_local else app.world
        horizon = await comm.allreduce(
            target if target is not None else 0, op=MAX)
        if app.gid in app.lost:
            await self.restore_grid(app)
            recompute = max(0, horizon - app.solver.step_count)
            with app.ctx.span("recompute", technique="CR", gid=app.gid):
                await app._step_guarded(recompute)
            app.cr_stats.recompute_steps += recompute
        if not grid_local:
            try:
                await app.world.barrier()
            except MPIError:
                pass  # another failure landed; the next detection repairs
        return horizon

    async def restore_grid(self, app) -> None:
        """Restore this grid from its checkpoints onto its current process
        grid (smaller than at launch after a shrink-in-place repair).

        The old grid is always the *launch-time* one: checkpoints written
        after an earlier shrink live under a different grid and are
        rejected by the restore's shape validation, which then falls back
        to the latest pre-shrink step (or the initial condition) — older
        data, never wrong data."""
        sub = app.scheme[app.gid]
        old_dims = choose_dims(len(app.base_layout.group_ranks(app.gid)),
                               sub.level_x, sub.level_y,
                               app.cfg.decomposition)
        await restore_checkpoint(app.ctx, app.disk(), app.gid, app.grid_comm,
                                 app.solver, old_dims, app.cr_stats)

    async def recover(self, app):
        """Losses declared at the end of the run (the simulated-failure
        mode of Figs. 9/10): affected grids restore their latest checkpoint
        and recompute up to the final step."""
        steps = app.cfg.steps
        if app.gid not in app.lost:
            return
        if app.solver.step_count >= steps and app.cr_stats.recompute_steps:
            return  # already recovered in the segment loop (real failure)
        await self.restore_grid(app)
        recompute = max(0, steps - app.solver.step_count)
        if recompute:
            with app.ctx.span("recompute", technique="CR", gid=app.gid):
                await app.solver.step(recompute)
        app.cr_stats.recompute_steps += recompute


class ResamplingCopying(RecoveryTechnique):
    """RC: duplicated diagonal grids; copy or resample lost data."""

    code = "RC"
    name = "Resampling and Copying"

    def make_scheme(self, n: int, level: int) -> CombinationScheme:
        return cached_scheme(n, level, duplicates=True)

    def validate_losses(self, scheme, lost_gids):
        lost = set(lost_gids)
        for a, b in scheme.rc_conflict_pairs():
            if a in lost and b in lost:
                raise ValueError(
                    f"RC cannot recover simultaneous loss of grids {a} and "
                    f"{b} (replica/resample pair)")

    def recovery_plan(self, scheme: CombinationScheme,
                      lost_gids: Iterable[int]) -> List[Tuple[int, int]]:
        """(lost gid, source gid) pairs; source holds the data to copy or
        resample (Sec. II-D: 0<->7, 1<->8, ..., 4 from 1, 5 from 2, 6 from 3)."""
        self.validate_losses(scheme, lost_gids)
        plan = []
        for gid in sorted(set(lost_gids)):
            src = scheme.resample_source(gid)
            if src is None:
                raise ValueError(f"grid {gid} has no RC recovery source")
            plan.append((gid, src))
        return plan

    async def recover(self, app):
        """Copy a lost grid from its replica, or resample a lost lower
        grid from the finer diagonal grid above it."""
        world, layout, scheme = app.world, app.layout, app.scheme
        for dst_gid, src_gid in self.recovery_plan(scheme, app.lost):
            if not layout.group_ranks(dst_gid) or \
                    not layout.group_ranks(src_gid):
                # shrink mode: a grid that lost every process cannot send
                # or receive — the combination proceeds without it
                continue
            if app.gid == src_gid:
                full = await app.solver.gather_full(0)
                if app.grid_comm.rank == 0:
                    await world.send(full, dest=layout.root_rank(dst_gid),
                                     tag=RECOVERY_TAG + dst_gid)
            if app.gid == dst_gid:
                if app.grid_comm.rank == 0:
                    full = await world.recv(
                        source=layout.root_rank(src_gid),
                        tag=RECOVERY_TAG + dst_gid)
                    data = restrict_periodic(full, scheme[src_gid].index,
                                             scheme[dst_gid].index)
                else:
                    data = None
                await app.solver.scatter_full(data, 0,
                                              step_count=app.cfg.steps)

    def contributes(self, app, coeffs):
        if not super().contributes(app, coeffs):
            return False
        if app.gid in app.lost and app.scheme[app.gid].role != "duplicate":
            # recovered by now, but prefer the replica's pristine copy for
            # diagonal grids; lower grids have no replica so they (being
            # freshly resampled) still contribute
            partner = app.scheme.resample_source(app.gid)
            if partner is not None and \
                    app.scheme[partner].role == "duplicate":
                return False
        return True


class AlternateCombination(RecoveryTechnique):
    """AC: extra coarse layers; recompute combination coefficients."""

    code = "AC"
    name = "Alternate Combination"
    restores_lost_grids = False

    def __init__(self, extra_layers: int = 2):
        self.extra_layers = extra_layers

    def make_scheme(self, n: int, level: int) -> CombinationScheme:
        return cached_scheme(n, level, extra_layers=self.extra_layers)

    async def recover(self, app):
        # "only the time needed for creating the combination
        # coefficients ... is used as recovery overhead"
        await app.ctx.compute(flops=AC_COEFF_FLOPS * max(1, len(app.lost)))

    def contributes(self, app, coeffs):
        # a lost grid's data is gone; it receives a sample of the combined
        # solution instead
        return app.gid not in app.lost and super().contributes(app, coeffs)

    async def after_combine(self, app, combined):
        """Lost grids receive a sample of the combined solution."""
        if not app.lost:
            return
        layout, target = app.layout, app.cfg.target
        wanted = {layout.root_rank(g): app.scheme[g].index
                  for g in app.lost if layout.group_ranks(g)}
        sample = await scatter_samples(app.world, combined, target, wanted,
                                       root=0)
        if app.gid in app.lost:
            data = periodic_from_nodal(sample) \
                if app.grid_comm.rank == 0 and sample is not None else None
            await app.solver.scatter_full(data, 0, step_count=app.cfg.steps)

    def __repr__(self) -> str:  # pragma: no cover
        return f"AlternateCombination(extra_layers={self.extra_layers})"


TECHNIQUES: Dict[str, RecoveryTechnique] = {
    "CR": CheckpointRestart(),
    "RC": ResamplingCopying(),
    "AC": AlternateCombination(),
}


def technique_by_code(code: str, extra_layers: int = 2) -> RecoveryTechnique:
    """The shared technique object for ``code`` (AC with ``extra_layers``
    redundant layers)."""
    try:
        t = TECHNIQUES[code.upper()]
    except KeyError:
        raise ValueError(f"unknown technique {code!r}; "
                         f"expected one of {sorted(TECHNIQUES)}") from None
    if isinstance(t, AlternateCombination) and \
            t.extra_layers != extra_layers:
        return AlternateCombination(extra_layers)
    return t
