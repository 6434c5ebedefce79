"""Pluggable recovery strategies: how the application repairs its world.

The paper's protocol (Figs. 3/5) always re-spawns failed ranks and rebuilds
the *global* communicator.  The FT-MPI literature since established two
alternatives, and this module puts all three behind one interface:

* ``respawn`` — the paper's global revoke + shrink + spawn + merge + split
  pipeline; the world keeps its original size and rank order.
* ``shrink`` — shrink-in-place ("Shrink or Substitute"): no spawn, no
  merge; the world contracts, each contracted sub-grid is re-decomposed
  over its survivors (``choose_dims``, so any process grid) and the lost
  sub-grids' work migrates onto survivors.
* ``nc`` — non-collective repair (Rocco & Palermo): only the failed
  sub-grid's communicator is rebuilt, via its own local-group operations;
  unaffected grids never stop solving.  Replacements are *re-admitted*
  into the enclosing world communicator by a purely local membership
  update.

Each strategy *is* its mode's protocol; the phase driver
(:class:`~repro.core.app.CombinationApp`) only calls the hooks below and
holds the per-run state they work on (``app.world``, ``app.grid_comm``,
``app.timers``, ``app.lost``, ...).  A strategy object is stateless and
shared:

* ``detect_and_repair(app)`` — the mode's failure-detection point (and,
  on error, its repair loop); returns True when membership changed;
* ``post_repair(app)`` — the membership/data resync after a repair
  (world re-split, survivor redistribution, or lost-grid marking);
* ``grid_local`` — whether a repair synchronises only the failed grid's
  communicator (the CR failure branch agrees its horizon there);
* ``child_join(app)`` — how a re-spawned process rejoins;
* ``world_resync(app)`` — the deferred world agreement before the
  world-collective phases (non-collective mode only).

``repro verify-protocol`` extracts ``CombinationApp.run`` with each
strategy bound, so every hook here is part of a mode's protocol model
(``analysis/model/extract.py``'s registry).  The shrink and
non-collective repair loops are module-level functions over explicit
communicators — the shape of
:func:`~repro.ft.reconstruct.communicator_reconstruct` — that return
communicators and booleans and update ``timers`` in place.
Their time is their spans: no hook keeps a clock of its own.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..mpi.errors import MPIError
from .detection import failed_procs_list, replaced_ranks
from .reconstruct import communicator_reconstruct, repair_comm

#: the repair phases that run grid-locally in ``nc`` mode, whose slowest
#: grid's seconds every rank reports (``world_resync``)
GRID_REPAIR_PHASES = ("reconstruct", "shrink", "spawn", "merge", "detect")


class RecoveryStrategy:
    """Base class; subclasses are stateless and safe to share."""

    mode: str = "?"
    name: str = "?"

    #: does a repair synchronise only the failed grid's communicator?
    grid_local: bool = False

    async def detect_and_repair(self, app) -> bool:
        raise NotImplementedError

    async def post_repair(self, app) -> None:
        """Resync after ``detect_and_repair`` reported a change."""
        raise NotImplementedError

    async def child_join(self, app) -> bool:
        """Re-spawned process: rejoin the communicator the survivors are
        repairing.  False for the orphan of an aborted repair attempt."""
        raise NotImplementedError

    async def world_resync(self, app) -> None:
        """Before the world-collective recovery and combination phases."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}()"


class RespawnStrategy(RecoveryStrategy):
    """The paper's Figs. 3/5 pipeline: global repair, original world back."""

    mode = "respawn"
    name = "global revoke+shrink+spawn+merge (paper, Figs. 3/5)"

    async def _reconstruct(self, app, comm):
        return await communicator_reconstruct(
            app.ctx, comm, entry=app.entry, argv=(app.cfg,),
            placement=app.cfg.placement, timers=app.timers)

    async def detect_and_repair(self, app) -> bool:
        """The Fig. 3 loop: agree + probe barrier; full global repair on
        error."""
        world = await self._reconstruct(app, app.world)
        changed = world.state is not app.world.state
        if changed:
            app.world = world
        return changed

    async def post_repair(self, app) -> None:
        """Learn the loss set, rebuild grid communicators (and, for new
        processes, the solver shell).

        The loss set is the union of every rank's locally-observed failed
        ranks, never a single rank's view: a re-spawned replacement —
        including a replacement rank 0 — joins with an empty failure
        record, so a rank-0 broadcast would announce an empty loss set and
        no grid would ever restore."""
        world = app.world
        views = await world.allgather(tuple(app.timers.failed_ranks))
        app.fold_failed(views)
        app.grid_comm = await world.split(app.gid, world.rank)
        if app.solver is None:
            app._make_solver()
        else:
            app.solver.rebind(app.grid_comm)

    async def child_join(self, app) -> bool:
        """The child branch of Fig. 3: regain the predecessor's rank."""
        world = await self._reconstruct(app, app.ctx.comm)
        if world is None:
            return False
        app.world = world
        app.gid = app.layout.gid_of(world.rank)
        return True


class ShrinkInPlaceStrategy(RecoveryStrategy):
    """Shrink the world and redistribute lost work over survivors."""

    mode = "shrink"
    name = "shrink-in-place (no spawn; survivors re-decompose)"

    async def detect_and_repair(self, app) -> bool:
        app.world, changed = await shrink_detect_repair(
            app.ctx, app.world, app.timers, app.base_layout.total_procs,
            app.technique.code)
        return changed

    async def post_repair(self, app) -> None:
        """Re-express the layout in survivor numbering, re-split grid
        communicators, and re-decompose any grid whose group contracted."""
        with app.ctx.span("redistribute", technique=app.technique.code,
                          gid=app.gid):
            app.fold_failed([app.timers.failed_ranks])
            # orphan adoption: a technique that restores lost grids (CR
            # from checkpoints, RC from the replica/resample source) lets a
            # fully-lost grid migrate onto a donor; AC drops lost grids
            # from the combination instead, so donating would only destroy
            # a healthy grid's data
            app.layout = app.base_layout.survivors(
                launch_ranks(app.base_layout.total_procs,
                             app.timers.failed_ranks),
                app.technique.restores_lost_grids)
            # a donor's old group contracted without failing; it needs
            # restoration like any damaged grid
            app.mark_lost(app.layout.adoptions.values())
            old_gid, old_size = app.gid, app.grid_comm.size
            app.gid = app.layout.gid_of(app.world.rank)
            app.grid_comm = await app.world.split(app.gid, app.world.rank)
            if app.gid == old_gid and app.grid_comm.size == old_size:
                # untouched grid: the split preserved relative order, so
                # every member keeps its grid rank — and its slab, bit for
                # bit
                app.solver.rebind(app.grid_comm)
            else:
                # contracted or adopted grid: fresh solver over the
                # survivors' process grid; data comes back via the
                # recovery technique
                app._make_solver()


class NonCollectiveStrategy(RecoveryStrategy):
    """Rebuild only the failed sub-grid communicators; re-admit locally."""

    mode = "nc"
    name = "non-collective repair (per-grid rebuild + world readmit)"

    grid_local = True

    async def detect_and_repair(self, app) -> bool:
        grid, changed = await nc_detect_repair(
            app.ctx, app.world, app.grid_comm,
            app.layout.group_ranks(app.gid), app.timers,
            entry=app.entry, argv=(app.cfg, app.world.state, app.gid),
            placement=app.cfg.placement,
            labels={"technique": app.technique.code, "gid": app.gid})
        if changed:
            app.grid_comm = grid
            app.solver.rebind(grid)
        return changed

    async def post_repair(self, app) -> None:
        # the grid was rebuilt in place; its data is only partially intact
        # (replacements start fresh), so the grid joins the lost set and
        # the technique restores it
        app.mark_lost([app.gid])

    async def child_join(self, app) -> bool:
        """Rejoin the *sub-grid* communicator through the reconstruction
        protocol, then adopt the world communicator the parents re-admitted
        us into (shipped in the spawn argv, membership already patched by
        the time the join barrier completes)."""
        ctx = app.ctx
        grid = await communicator_reconstruct(
            ctx, ctx.comm, entry=app.entry, argv=ctx.argv,
            placement=app.cfg.placement, timers=app.timers)
        if grid is None:
            return False
        app.gid = int(ctx.argv[2])
        app.grid_comm = grid
        app.world = ctx.argv[1].handle(ctx.proc)
        app._make_solver()
        return True

    async def world_resync(self, app) -> None:
        """Rejoin the world after grid-local repairs: one agreement plus an
        allgather unions every grid's locally-observed loss set — the first
        (and only) world-collective step the non-collective mode takes."""
        ctx, world, t = app.ctx, app.world, app.timers
        with ctx.span("agree", technique=app.technique.code):
            await world.agree(1)
        spent = ctx.spent()
        payload = (tuple(t.failed_ranks),
                   *(spent.get(p, 0.0) for p in GRID_REPAIR_PHASES),
                   t.iterations)
        try:
            views = await world.allgather(payload)
        except MPIError:
            raise RuntimeError(
                "non-collective repair cannot recover a grid that lost "
                "every member (no survivor is left to rebuild it); use "
                "shrink or respawn mode for full-grid losses") from None
        # repairs ran grid-locally: adopt the slowest grid's repair costs
        # everywhere (the wall-clock convention rank 0's metrics report)
        app.repair_seconds = {p: max(v[i] for v in views)
                              for i, p in enumerate(GRID_REPAIR_PHASES, 1)}
        t.iterations = max(v[-1] for v in views)
        app.fold_failed(view[0] for view in views)


def launch_ranks(total: int, failed: Iterable[int]) -> List[int]:
    """Launch-time rank of each current world rank after shrinks that
    removed ``failed`` from a world of ``total``: a shrink keeps the
    survivors' relative order."""
    dead = set(failed)
    return [r for r in range(total) if r not in dead]


async def shrink_detect_repair(ctx, world, timers, total: int, code: str):
    """Detection point of the shrink-in-place mode: agree + probe barrier
    on the world; on error revoke + shrink — no spawn, no merge.  Loops so
    failures landing *during* the shrink are caught by the re-probe.

    ``total`` is the launch world's size; the dead are appended to
    ``timers.failed_ranks`` in launch-time numbering.  Returns
    ``(world, changed)``."""
    changed = False
    while True:
        with ctx.span("agree", technique=code):
            await world.agree(1)
        try:
            await world.barrier()
            return (world, changed)
        except MPIError:
            pass
        changed = True
        with ctx.span("reconstruct"):
            with ctx.span("detect"):
                world.revoke()
                with ctx.span("shrink"):
                    shrunk = await world.shrink()
                failed, _ = failed_procs_list(world, shrunk)
            # the group difference is in current ranks
            members = launch_ranks(total, timers.failed_ranks)
            timers.failed_ranks.extend(members[i] for i in failed)
            world = shrunk
            timers.iterations += 1


async def nc_detect_repair(ctx, world, grid, rank_map: Sequence[int], timers,
                           *, entry, argv, placement, labels):
    """Detection point of the non-collective mode: agree + probe barrier on
    *this grid's* communicator only.  On error, Fig. 5 runs against the
    sub-grid communicator (``rank_map``: its ranks in world terms) and the
    replacements are re-admitted into the world by a local membership
    update — other grids never notice.

    The loop-head agree+barrier doubles as the join point with the
    re-spawned child (the tail of its reconstruction loop): readmits
    happen before the parents enter it, so once it completes the child
    is a world member everywhere.  Returns ``(grid, changed)``."""
    changed = False
    while True:
        with ctx.span("agree", **labels):
            await grid.agree(1)
        try:
            await grid.barrier()
            return (grid, changed)
        except MPIError:
            pass
        changed = True
        with ctx.span("reconstruct", **labels):
            rebuilt = await repair_comm(
                ctx, grid, entry=entry, argv=argv, placement=placement,
                timers=timers, rank_map=rank_map)
            for i in replaced_ranks(grid, rebuilt):
                await world.readmit(rank_map[i], rebuilt.state.procs[i])
            grid = rebuilt
        timers.iterations += 1


STRATEGIES: Dict[str, RecoveryStrategy] = {
    "respawn": RespawnStrategy(),
    "shrink": ShrinkInPlaceStrategy(),
    "nc": NonCollectiveStrategy(),
}


def strategy_by_mode(mode: str) -> RecoveryStrategy:
    try:
        return STRATEGIES[mode.lower()]
    except KeyError:
        raise ValueError(f"unknown recovery mode {mode!r}; "
                         f"expected one of {sorted(STRATEGIES)}") from None
