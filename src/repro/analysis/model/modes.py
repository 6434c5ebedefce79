"""Protocol harnesses for the five shipped recovery configurations.

Each ``# repro: protocol`` function below is the *communication skeleton*
of one configuration of :class:`repro.core.app.CombinationApp`: CR
(checkpoint/restart), RC (resampling/copying) and AC (alternate
combination) under the paper's global respawn repair, plus CR under the
two alternative repair modes of :mod:`repro.ft.strategy`, SHRINK
(shrink-in-place) and NC (non-collective per-grid repair).  The bodies
are **never executed**: ``python -m repro verify-protocol`` extracts them
to protocol IR and model-checks the cross-rank product state space over
every failure placement.

The repair in every skeleton is the code the simulator runs, inlined by
name through ``extract.reconstruct_registry``: the Fig. 3/5 pipeline
(``communicator_reconstruct`` / ``repair_comm``) and the SHRINK and NC
loops (``shrink_detect_repair`` / ``nc_detect_repair``).  The rest is
hand-written harness for the phase driver and the techniques — entry
points (``CombinationApp.run``), segments, resync + CR failure branch
(``rejoin`` / ``nc_rejoin``; inlining the shipped ``post_repair`` and
``CheckpointRestart.on_failure`` would take an extractor that sees through
``app.*`` state, checkpoint and solver calls) and finales.  ``# app:`` /
``# ft:`` comments name the counterpart in ``core/app.py`` / ``repro.ft``.

The model is deliberately small (two grids of two ranks, two solve
segments): the properties proved — survivors and re-spawned processes
converge on one collective sequence, the spawn/merge handshake matches,
checkpoint epochs agree — are rank-count-symmetric beyond the first
non-trivial configuration, while the state space is exponential in ranks.
"""

from __future__ import annotations

from ...ft.reconstruct import communicator_reconstruct
from ...ft.strategy import nc_detect_repair, shrink_detect_repair
from ...mpi.comm import MAX
from ...mpi.errors import MPIError
from .vocab import (ckpt_restore, ckpt_write, grids_of,
                    known_failed_ranks, world_comm)

__all__ = ["MODES", "DEFAULT_RANKS", "GRID_RANKS", "NGRIDS", "SEGMENTS"]

GRID_RANKS = 2
NGRIDS = 2
SEGMENTS = 2
RECOVERY_TAG = 7000

DEFAULT_RANKS = GRID_RANKS * NGRIDS


async def rejoin(ctx, world, gid, target):
    """Post-repair resynchronisation and CR failure branch.  # ft:
    RespawnStrategy.post_repair + CheckpointRestart.on_failure (every
    rank contributes what it knows — a re-spawned root must not be the
    single source of truth).  The shrink mode shares it: after the
    in-place repair the contracted world re-splits and restores the same
    way (# ft: ShrinkInPlaceStrategy.post_repair)."""
    known = await world.allgather(known_failed_ranks(ctx))
    lost = grids_of(known, GRID_RANKS)
    grid = await world.split(gid, world.rank)
    horizon = await world.allreduce(target, op=MAX)
    if gid in lost:
        epoch = ckpt_restore(gid)
        try:
            await grid.halo()  # recompute the segment from the checkpoint
        except MPIError:
            grid.revoke()
    try:
        await world.barrier()
    except MPIError:
        pass
    return (grid, horizon, lost)


async def cr_segment(ctx, world, grid, gid, seg):
    """One guarded solve segment.  # app: _step_guarded + _segment_loop"""
    try:
        await grid.halo()
    except MPIError:
        grid.revoke()
    world2 = await communicator_reconstruct(ctx, world, entry=cr_child)
    if world2 is not world:
        world = world2
        state = await rejoin(ctx, world, gid, seg)
        grid = state[0]
    else:
        if seg < SEGMENTS:
            ckpt_write(gid, seg)  # app: write_checkpoint at the boundary
    return (world, grid)


async def finale(ctx, world, grid, gid):
    """Recovery + combination phases.  # app: _recovery_phase +
    _combination_phase (CR recovers from disk, so no extra traffic)."""
    await world.barrier()
    await world.barrier()
    await world.barrier()
    nodal = await world.gather(gid, root=0)
    await world.barrier()
    stats = await world.gather(0, root=0)


# repro: protocol ranks=4 failures=1 child=cr_child
async def cr_parent(ctx, world):
    """Checkpoint/restart mode, original-process entry point."""
    gid = world.rank // GRID_RANKS
    grid = await world.split(gid, world.rank)
    for seg in range(1, SEGMENTS + 1):
        pair = await cr_segment(ctx, world, grid, gid, seg)
        world = pair[0]
        grid = pair[1]
    await finale(ctx, world, grid, gid)


async def cr_child(ctx):
    """Checkpoint/restart mode, re-spawned-process entry point.
    # app: CombinationApp.run with a parent; # ft: child_join"""
    world = await communicator_reconstruct(ctx, None, entry=cr_child)
    if world is None:
        return None  # orphan of an abandoned repair round
    gid = world.rank // GRID_RANKS
    state = await rejoin(ctx, world, gid, 0)
    grid = state[0]
    horizon = state[1]
    for seg in range(1, SEGMENTS + 1):
        if seg > horizon:
            pair = await cr_segment(ctx, world, grid, gid, seg)
            world = pair[0]
            grid = pair[1]
    await finale(ctx, world, grid, gid)


async def sparse_step(ctx, world, grid, gid, entry):
    """One unsegmented solve + single repair round.  # app:
    _segment_loop over one segment (RC and AC do not checkpoint: one
    guarded solve, one reconstruct, then resync)."""
    lost = ()
    try:
        await grid.halo()
    except MPIError:
        grid.revoke()
    world2 = await communicator_reconstruct(ctx, world, entry=entry)
    if world2 is not world:
        world = world2
        known = await world.allgather(known_failed_ranks(ctx))
        lost = grids_of(known, GRID_RANKS)
        grid = await world.split(gid, world.rank)
    return (world, grid, lost)


async def rc_finale(ctx, world, grid, gid, lost):
    """Resampling/copying recovery: the paired surviving grid root
    sends its field to each lost grid's root, which scatters it.
    # ft: ResamplingCopying.recover; # app: _combination_phase"""
    await world.barrier()
    for g in lost:
        src = NGRIDS - 1 - g
        if gid == src:
            if grid.rank == 0:
                await world.send(g, dest=g * GRID_RANKS,
                                 tag=RECOVERY_TAG + g)
        if gid == g:
            if grid.rank == 0:
                full = await world.recv(source=src * GRID_RANKS,
                                        tag=RECOVERY_TAG + g)
            await grid.bcast(0, root=0)  # app: solver.scatter_full
    await world.barrier()
    await world.barrier()
    nodal = await world.gather(gid, root=0)
    await world.barrier()
    stats = await world.gather(0, root=0)


# repro: protocol ranks=4 failures=1 child=rc_child
async def rc_parent(ctx, world):
    """Resampling/copying mode, original-process entry point."""
    gid = world.rank // GRID_RANKS
    grid = await world.split(gid, world.rank)
    state = await sparse_step(ctx, world, grid, gid, rc_child)
    await rc_finale(ctx, state[0], state[1], gid, state[2])


async def rc_child(ctx):
    """Resampling/copying mode, re-spawned-process entry point."""
    world = await communicator_reconstruct(ctx, None, entry=rc_child)
    if world is None:
        return None
    gid = world.rank // GRID_RANKS
    known = await world.allgather(known_failed_ranks(ctx))
    lost = grids_of(known, GRID_RANKS)
    grid = await world.split(gid, world.rank)
    await rc_finale(ctx, world, grid, gid, lost)


async def ac_finale(ctx, world, grid, gid, lost):
    """Alternate-combination recovery: root recombines without the lost
    grids, then re-seeds each lost grid root from the combined field.
    # ft: AlternateCombination.recover + after_combine"""
    await world.barrier()
    await world.barrier()
    await world.barrier()
    nodal = await world.gather(gid, root=0)
    for g in lost:
        if world.rank == 0:
            await world.send(0, dest=g * GRID_RANKS, tag=RECOVERY_TAG + g)
        if world.rank == g * GRID_RANKS:
            sample = await world.recv(source=0, tag=RECOVERY_TAG + g)
        if gid == g:
            await grid.bcast(0, root=0)  # app: solver.scatter_full
    await world.barrier()
    stats = await world.gather(0, root=0)


# repro: protocol ranks=4 failures=1 child=ac_child
async def ac_parent(ctx, world):
    """Alternate-combination mode, original-process entry point."""
    gid = world.rank // GRID_RANKS
    grid = await world.split(gid, world.rank)
    state = await sparse_step(ctx, world, grid, gid, ac_child)
    await ac_finale(ctx, state[0], state[1], gid, state[2])


async def ac_child(ctx):
    """Alternate-combination mode, re-spawned-process entry point."""
    world = await communicator_reconstruct(ctx, None, entry=ac_child)
    if world is None:
        return None
    gid = world.rank // GRID_RANKS
    known = await world.allgather(known_failed_ranks(ctx))
    lost = grids_of(known, GRID_RANKS)
    grid = await world.split(gid, world.rank)
    await ac_finale(ctx, world, grid, gid, lost)


async def shrink_segment(ctx, world, grid, gid, seg):
    """One guarded solve segment under in-place repair.  # app:
    _segment_loop; the repair is the shipped loop"""
    try:
        await grid.halo()
    except MPIError:
        grid.revoke()
    # timers and the membership map are bookkeeping the abstraction drops
    state = await shrink_detect_repair(ctx, world, None, None, "CR")
    world = state[0]
    if state[1]:
        sub = await rejoin(ctx, world, gid, seg)
        grid = sub[0]
    else:
        if seg < SEGMENTS:
            ckpt_write(gid, seg)  # app: write_checkpoint at the boundary
    return (world, grid)


# repro: protocol ranks=4 failures=1
async def shrink_parent(ctx, world):
    """Shrink-in-place mode, sole entry point — nothing is ever
    re-spawned, so the model declares no child program: survivors
    continue on the contracted world and adopt the lost grids' work."""
    gid = world.rank // GRID_RANKS
    grid = await world.split(gid, world.rank)
    for seg in range(1, SEGMENTS + 1):
        pair = await shrink_segment(ctx, world, grid, gid, seg)
        world = pair[0]
        grid = pair[1]
    await finale(ctx, world, grid, gid)


async def nc_rejoin(ctx, world, grid, gid, target):
    """Post-repair resynchronisation, confined to the rebuilt grid:
    agree on the resume horizon and restore from the grid's own
    checkpoints.  # ft: CheckpointRestart.on_failure, grid-local"""
    horizon = await grid.allreduce(target, op=MAX)
    epoch = ckpt_restore(gid)
    try:
        await grid.halo()  # recompute the segment from the checkpoint
    except MPIError:
        grid.revoke()
    return horizon


async def nc_segment(ctx, world, grid, gid, seg):
    """One guarded solve segment; detection and repair stay grid-local.
    # app: _segment_loop; the repair is the shipped loop"""
    try:
        await grid.halo()
    except MPIError:
        grid.revoke()
    rank_map = (gid * GRID_RANKS, gid * GRID_RANKS + 1)
    state = await nc_detect_repair(ctx, world, grid, rank_map, None,
                                   entry=nc_child, argv=(), placement=None,
                                   labels={})
    grid = state[0]
    if state[1]:
        horizon = await nc_rejoin(ctx, world, grid, gid, seg)
    else:
        if seg < SEGMENTS:
            ckpt_write(gid, seg)  # app: write_checkpoint at the boundary
    return grid


async def nc_finale(ctx, world, grid, gid):
    """Deferred world resynchronisation — the mode's one world-wide
    exchange, after stepping completes — then the recovery/combination
    phases.  # ft: NonCollectiveStrategy.world_resync; # app:
    _recovery_phase + _combination_phase"""
    ok = await world.agree(1)
    known = await world.allgather(known_failed_ranks(ctx))
    lost = grids_of(known, GRID_RANKS)
    await finale(ctx, world, grid, gid)


# repro: protocol ranks=4 failures=1 child=nc_child
async def nc_parent(ctx, world):
    """Non-collective mode, original-process entry point."""
    gid = world.rank // GRID_RANKS
    grid = await world.split(gid, world.rank)
    for seg in range(1, SEGMENTS + 1):
        grid = await nc_segment(ctx, world, grid, gid, seg)
    await nc_finale(ctx, world, grid, gid)


async def nc_child(ctx):
    """Non-collective mode, re-spawned-process entry point: joins only
    its own grid's rebuild, then adopts the world whose membership the
    survivors already patched.  # ft: NonCollectiveStrategy.child_join"""
    grid = await communicator_reconstruct(ctx, None, entry=nc_child)
    if grid is None:
        return None  # orphan of an abandoned repair round
    world = world_comm(ctx)
    gid = world.rank // GRID_RANKS
    horizon = await nc_rejoin(ctx, world, grid, gid, 0)
    for seg in range(1, SEGMENTS + 1):
        if seg > horizon:
            grid = await nc_segment(ctx, world, grid, gid, seg)
    await nc_finale(ctx, world, grid, gid)


#: recovery mode -> annotated parent entry point name
MODES = {
    "CR": "cr_parent",
    "RC": "rc_parent",
    "AC": "ac_parent",
    "SHRINK": "shrink_parent",
    "NC": "nc_parent",
}
