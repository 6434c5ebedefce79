"""Checkpoint/Restart — exact data recovery from periodic disk checkpoints.

Each process writes its local solver block to (simulated) disk at a fixed
step interval; after a failure the affected sub-grid restores the most
recent checkpoint and recomputes the steps taken since.  One restore serves
every recovery mode: it reads the overlaps of the blocks the checkpoints
were written under with the blocks of the grid's current process grid, so
a group that shrank in place — over any ``dims`` — restores from the same
files as one that re-spawned.  The virtual-time disk model charges the
cluster's per-checkpoint write latency ``T_I/O`` (3.52 s on OPL, 0.03 s on
Raijin) plus streaming time.

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
    """Write this rank's block; charges ``T_I/O`` + streaming."""
    with ctx.span("checkpoint_write", gid=gid):
        snap = solver.snapshot()
        cost = await ctx.disk_write(snap["u"].nbytes)
        disk.write(gid, grid_rank, snap)
    if stats is not None:
        stats.writes += 1
        stats.write_time += cost


async def restore_checkpoint(ctx, disk: Disk, gid: int, grid_comm, solver,
                             old_dims: Tuple[int, int],
                             stats: Optional[CheckpointStats] = None) -> int:
    """Group-coordinated restore of this rank's block from checkpoints
    written over the process grid ``old_dims``.

    After a shrink-in-place repair the solver's ``dims`` are smaller than
    the grid the checkpoints were written under.  Each rank reads exactly
    the parts of the old blocks that overlap its new block and assembles
    it locally — the migration is fully distributed, with no root gather.
    An unchanged grid reads one piece: the rank's own snapshot.

    A failure can interrupt a checkpoint round (survivors completed the
    write, the victim did not), so a step is restorable only if *every*
    old rank checkpointed it — the disk survives process death, so the
    victims' complete checkpoints still count.  A step is
    valid for this rank when each overlapping snapshot exists with the
    solver's levels and the old block's shape: a grid that shrank before
    re-writes its low slots under the contracted grid, and those steps are
    missing for the higher old ranks or have the wrong shape.  Every old
    block overlaps some new one, so one ``BAND`` allreduce of the validity
    mask (bit ``s`` for step ``s``) leaves the steps valid everywhere; the
    group restores the newest, and step 0 (the initial condition, always
    reconstructible) is the fallback.

    Returns the restored step count.
    """
    import numpy as np

    from ..mpi.comm import BAND
    from ..pde.decomposition import block_bounds

    shape, levels = solver.shape, (solver.level_x, solver.level_y)
    (x0, x1), (y0, y1) = block_bounds(shape, solver.dims, grid_comm.rank)
    # (old rank, its block's shape, where the overlap sits in its block,
    # where it goes in mine) for every old block overlapping mine
    pieces = []
    for q in range(old_dims[0] * old_dims[1]):
        (a0, a1), (b0, b1) = block_bounds(shape, old_dims, q)
        lx, hx, ly, hy = max(a0, x0), min(a1, x1), max(b0, y0), min(b1, y1)
        if lx < hx and ly < hy:
            pieces.append((q, (a1 - a0, b1 - b0),
                           np.s_[lx - a0:hx - a0, ly - b0:hy - b0],
                           np.s_[lx - x0:hx - x0, ly - y0:hy - y0]))
    with ctx.span("checkpoint_read", gid=gid):
        snaps: Dict[Tuple[int, int], dict] = {}

        def valid(step: int) -> bool:
            for q, old_shape, _src, _dst in pieces:
                snap = snaps[q, step] = disk.read(gid, q, step)
                if snap is None or snap["u"].shape != old_shape or \
                        (snap["level_x"], snap["level_y"]) != levels:
                    return False
            return True

        mask = sum(1 << s for s in disk.available_steps(gid, pieces[0][0])
                   if s > 0 and valid(s))
        mask = await grid_comm.allreduce(mask, op=BAND)
        common = max(mask.bit_length() - 1, 0)
        if common == 0:
            cost = await ctx.disk_read(solver.u.nbytes)
            solver.u = solver.initial_block()
        else:
            cost = 0.0
            u = np.empty((x1 - x0, y1 - y0), dtype=solver.u.dtype)
            for q, _shape, src, dst in pieces:
                piece = snaps[q, common]["u"][src]
                cost += await ctx.disk_read(piece.nbytes)
                u[dst] = piece
            solver.u = u
        solver.step_count = common
    if stats is not None:
        stats.read_time += cost
    return common
