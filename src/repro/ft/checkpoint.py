"""Checkpoint/Restart — exact data recovery from periodic disk checkpoints.

Each process writes its local solver slab to (simulated) disk at a fixed
step interval; after a failure the affected sub-grid restores the most
recent checkpoint and recomputes the steps taken since.  The virtual-time
disk model charges the cluster's per-checkpoint write latency ``T_I/O``
(3.52 s on OPL, 0.03 s on Raijin) plus streaming time.

On the optimal checkpoint count: the paper's Eq. 2 prints ``C = T / T_IO``
(T = MTBF), but that makes the total checkpoint overhead ``C x T_IO = T``
*independent of the disk*, contradicting the paper's own observation that
Raijin's low write latency gives CR the least overhead (Fig. 9b).  We use
Young's optimal interval ``tau = sqrt(2 T_IO x MTBF)`` — which reproduces
the reported behaviour — and keep the literal formula available as
:func:`paper_eq2_checkpoint_count` for the ablation bench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


def optimal_checkpoint_count(run_time: float, t_io: float,
                             mtbf: Optional[float] = None) -> int:
    """Number of checkpoints over ``run_time`` at Young's optimal interval.

    ``mtbf`` defaults to half the run time (the paper's setup).
    """
    if t_io <= 0:
        return 1
    mtbf = run_time / 2.0 if mtbf is None else mtbf
    interval = math.sqrt(2.0 * t_io * mtbf)
    return max(1, round(run_time / interval))


def paper_eq2_checkpoint_count(mtbf: float, t_io: float) -> int:
    """The literal Eq. 2: ``C = T / T_I/O``."""
    if t_io <= 0:
        return 1
    return max(1, int(mtbf / t_io))


def checkpoint_interval_steps(total_steps: int, n_checkpoints: int) -> int:
    """Steps between checkpoints for ``n_checkpoints`` over ``total_steps``."""
    return max(1, total_steps // max(1, n_checkpoints))


class Disk:
    """Simulated persistent storage: survives process failures.

    Checkpoints are keyed ``(grid id, rank-within-grid) -> {step: snapshot}``
    and versioned by step, because a failure can interrupt a checkpoint
    round: some group members complete the write, the dying one does not.
    Restart must then roll the whole group back to the latest *common* step
    (see :func:`restore_checkpoint`), so a bounded history is retained.
    """

    #: checkpoints retained per (grid, rank); 2 suffices for correctness,
    #: a little slack eases debugging
    KEEP = 3

    def __init__(self):
        self._store: Dict[Tuple[int, int], Dict[int, dict]] = {}
        self.writes = 0
        self.reads = 0
        self.bytes_written = 0

    def write(self, gid: int, grid_rank: int, snapshot: dict) -> None:
        # store an owned copy: the caller keeps (and may mutate) its array
        stored = dict(snapshot)
        stored["u"] = snapshot["u"].copy()
        slot = self._store.setdefault((gid, grid_rank), {})
        slot[snapshot["step_count"]] = stored
        while len(slot) > self.KEEP:
            del slot[min(slot)]
        self.writes += 1
        self.bytes_written += snapshot["u"].nbytes

    def read(self, gid: int, grid_rank: int, step: int) -> Optional[dict]:
        """Return an *owned* snapshot: ``u`` is deep-copied, never a view
        of the stored history.

        A shallow ``dict(snap)`` used to alias the stored array — a caller
        stepping in place after a restore (the ``*_into`` kernel path)
        would silently corrupt the checkpoint it had just read, so the
        next restore of the same step returned post-failure garbage.
        """
        self.reads += 1
        snap = self._store.get((gid, grid_rank), {}).get(step)
        if snap is None:
            return None
        out = dict(snap)
        out["u"] = snap["u"].copy()
        return out

    def available_steps(self, gid: int, grid_rank: int) -> Tuple[int, ...]:
        return tuple(sorted(self._store.get((gid, grid_rank), {})))

    def latest_step(self, gid: int, grid_rank: int = 0) -> Optional[int]:
        steps = self.available_steps(gid, grid_rank)
        return steps[-1] if steps else None


class FileDisk(Disk):
    """Disk backend that writes checkpoints to an actual directory.

    The paper checkpoints to the cluster filesystem; this backend does the
    same with ``numpy`` archives (one ``.npz`` per (grid, rank, step)),
    proving the serialisation path, while virtual-time costs are still
    charged by the machine model.  The in-memory index mirrors the base
    class so reads are format-checked round trips.
    """

    def __init__(self, directory):
        super().__init__()
        import pathlib
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, gid: int, grid_rank: int, step: int):
        return self.directory / f"ckpt_g{gid}_r{grid_rank}_s{step}.npz"

    def write(self, gid: int, grid_rank: int, snapshot: dict) -> None:
        import numpy as np
        step = snapshot["step_count"]
        older = self.available_steps(gid, grid_rank)
        np.savez(self._path(gid, grid_rank, step), u=snapshot["u"],
                 meta=np.array([step, snapshot["level_x"],
                                snapshot["level_y"]]))
        super().write(gid, grid_rank, snapshot)
        # prune files evicted from the bounded history — including the
        # step just written: re-writing a step older than the retained
        # window evicts itself, and leaving its file behind would let
        # ``read`` (which trusts the filesystem) resurrect dead history
        kept = set(self.available_steps(gid, grid_rank))
        for s in set(older) | {step}:
            if s not in kept:
                self._path(gid, grid_rank, s).unlink(missing_ok=True)

    def read(self, gid: int, grid_rank: int, step: int) -> Optional[dict]:
        import numpy as np
        path = self._path(gid, grid_rank, step)
        if not path.exists():
            self.reads += 1
            return None
        with np.load(path) as archive:
            u = archive["u"].copy()
            meta = archive["meta"]
        self.reads += 1
        return {"u": u, "step_count": int(meta[0]),
                "level_x": int(meta[1]), "level_y": int(meta[2])}


@dataclass
class CheckpointStats:
    """Per-rank accounting of checkpoint activity (feeds Fig. 9)."""

    writes: int = 0
    write_time: float = 0.0
    read_time: float = 0.0
    recompute_steps: int = 0


async def write_checkpoint(ctx, disk: Disk, gid: int, grid_rank: int,
                           solver, stats: Optional[CheckpointStats] = None) -> None:
    """Write this rank's slab; charges ``T_I/O`` + streaming."""
    with ctx.span("checkpoint_write", gid=gid):
        snap = solver.snapshot()
        cost = await ctx.disk_write(snap["u"].nbytes)
        disk.write(gid, grid_rank, snap)
    if stats is not None:
        stats.writes += 1
        stats.write_time += cost


async def restore_checkpoint(ctx, disk: Disk, gid: int, grid_comm, solver,
                             stats: Optional[CheckpointStats] = None) -> int:
    """Group-coordinated restore: roll the whole sub-grid back to the
    latest checkpoint step available to *every* group member.

    A failure can interrupt a checkpoint round (survivors completed the
    write, the victim did not), so members may differ in their newest
    snapshot; restoring each rank's own latest would silently desynchronise
    the group.  The group agrees on ``min(latest)`` — step 0 (the initial
    condition, always reconstructible) acts as the fallback checkpoint.

    Returns the restored step count.
    """
    from ..mpi.comm import MIN
    with ctx.span("checkpoint_read", gid=gid):
        my_latest = disk.latest_step(gid, grid_comm.rank)
        common = await grid_comm.allreduce(
            0 if my_latest is None else my_latest, op=MIN)
        if common <= 0:
            cost = await ctx.disk_read(solver.u.nbytes)
            solver.u = solver.initial_block()
            solver.step_count = 0
            restored = 0
        else:
            snap = disk.read(gid, grid_comm.rank, common)
            if snap is None:  # pragma: no cover - history too short
                raise RuntimeError(
                    f"checkpoint step {common} missing for grid {gid} rank "
                    f"{grid_comm.rank}; increase Disk.KEEP")
            cost = await ctx.disk_read(snap["u"].nbytes)
            solver.restore(snap)
            restored = common
    if stats is not None:
        stats.read_time += cost
    return restored


async def restore_checkpoint_remapped(ctx, disk: Disk, gid: int, grid_comm,
                                      solver, old_n_parts: int,
                                      stats: Optional[CheckpointStats] = None
                                      ) -> int:
    """Restore a sub-grid whose process group *changed size* (shrink mode).

    Checkpoints on disk are keyed by the grid's **original** decomposition
    (``old_n_parts`` slabs); after a shrink-in-place repair the group has
    fewer members and a re-balanced decomposition.  Each surviving rank
    reads exactly the overlapping regions of the old ranks' checkpoints
    (per :func:`~repro.pde.decomposition.migration_plan`) and assembles its
    new slab locally — the migration is fully distributed, with no root
    gather.

    The restore step is the latest step every *old* rank checkpointed (the
    disk survives process death, so the victims' last complete checkpoints
    are still readable).  Step 0 (the initial condition) is the fallback
    when any old rank has no complete checkpoint.  Returns the restored
    step count.
    """
    import numpy as np

    from ..mpi.comm import BAND
    from ..pde.decomposition import migration_plan, rebalance

    old = rebalance(solver.decomp, old_n_parts)
    plan = migration_plan(old, solver.decomp)[grid_comm.rank]
    with ctx.span("checkpoint_read", gid=gid):
        # candidate steps: checkpointed by *every* old rank, newest first.
        # A grid that shrank before may carry later checkpoints written
        # under its resized decomposition; those steps are absent for the
        # higher old ranks, so the intersection naturally excludes them.
        step_sets = [set(disk.available_steps(gid, r))
                     for r in range(old_n_parts)]
        candidates = [s for s in sorted(set.intersection(*step_sets),
                                        reverse=True) if s > 0] \
            if step_sets and all(step_sets) else []
        cache: Dict[Tuple[int, int], Optional[dict]] = {}

        def _valid(step: int) -> bool:
            """My plan's pieces exist at ``step`` with old-slab extents
            (a step re-written under a different decomposition has the
            wrong shape and must be rejected)."""
            for q, _s, _e in plan:
                snap = cache.get((q, step))
                if snap is None:
                    snap = cache[(q, step)] = disk.read(gid, q, step)
                if snap is None:
                    return False
                if (snap["level_x"], snap["level_y"]) != (solver.level_x,
                                                          solver.level_y):
                    return False
                a, b = old.bounds(q)
                u = snap["u"]
                if (u.shape[0] if solver.axis == 0 else u.shape[1]) != b - a:
                    return False
            return True

        mask = 0
        for i, s in enumerate(candidates):
            if _valid(s):
                mask |= 1 << i
        # the chosen step must be readable and shape-consistent on every
        # rank: agree bitwise over the shared candidate list (identical
        # everywhere — the disk is shared state)
        common_mask = await grid_comm.allreduce(mask, op=BAND)
        common = 0
        for i, s in enumerate(candidates):
            if common_mask & (1 << i):
                common = s
                break
        if common <= 0:
            cost = await ctx.disk_read(solver.u.nbytes)
            solver.u = solver.initial_block()
            solver.step_count = 0
            restored = 0
        else:
            cost = 0.0
            pieces = []
            for q, s, e in plan:
                u = cache[(q, common)]["u"]
                a, _b = old.bounds(q)
                piece = u[s - a:e - a, :] if solver.axis == 0 \
                    else u[:, s - a:e - a]
                cost += await ctx.disk_read(piece.nbytes)
                pieces.append(piece)
            solver.u = np.ascontiguousarray(
                np.concatenate(pieces, axis=solver.axis))
            solver.step_count = common
            restored = common
    if stats is not None:
        stats.read_time += cost
    return restored
