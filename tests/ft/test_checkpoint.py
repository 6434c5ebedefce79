"""Checkpoint/Restart machinery: Disk versioning, coordinated restore."""

import numpy as np
import pytest

from repro.ft import (CheckpointStats, Disk, checkpoint_interval_steps,
                      optimal_checkpoint_count, paper_eq2_checkpoint_count,
                      restore_checkpoint, write_checkpoint)
from repro.pde import AdvectionProblem, DistributedAdvectionSolver

from ..conftest import run_ranks as run

PROB = AdvectionProblem()


def test_disk_versioned_by_step():
    d = Disk()
    for step in (4, 8, 12):
        d.write(1, 0, {"u": np.zeros(2), "step_count": step,
                       "level_x": 3, "level_y": 3})
    assert d.available_steps(1, 0) == (4, 8, 12)
    snap = d.read(1, 0, 8)
    assert snap["step_count"] == 8
    assert d.read(1, 0, 99) is None


def test_disk_history_bounded():
    d = Disk()
    for step in range(10):
        d.write(0, 0, {"u": np.zeros(1), "step_count": step,
                       "level_x": 1, "level_y": 1})
    assert len(d.available_steps(0, 0)) == Disk.KEEP


def test_disk_read_returns_owned_copy():
    """Regression: ``Disk.read`` used to return a shallow copy whose ``u``
    aliased the stored array — a caller stepping in place after a restore
    corrupted the checkpoint it had just read."""
    d = Disk()
    d.write(0, 0, {"u": np.arange(4.0), "step_count": 1,
                   "level_x": 2, "level_y": 2})
    first = d.read(0, 0, 1)
    first["u"][:] = -999.0        # simulate in-place stepping post-restore
    second = d.read(0, 0, 1)
    assert np.array_equal(second["u"], np.arange(4.0))
    assert second["u"] is not first["u"]


def test_disk_write_detaches_from_caller_array():
    """The store must also own its copy on write: the caller keeps
    stepping its solver array after a checkpoint."""
    d = Disk()
    u = np.arange(4.0)
    d.write(0, 0, {"u": u, "step_count": 1, "level_x": 2, "level_y": 2})
    u[:] = 7.0                    # caller continues stepping in place
    assert np.array_equal(d.read(0, 0, 1)["u"], np.arange(4.0))


def test_disk_counters():
    d = Disk()
    d.write(0, 0, {"u": np.zeros(4), "step_count": 1,
                   "level_x": 1, "level_y": 1})
    d.read(0, 0, 1)
    assert d.writes == 1 and d.reads == 1 and d.bytes_written == 32


def test_optimal_checkpoint_count_young():
    # interval = sqrt(2 * t_io * mtbf); count = run / interval
    assert optimal_checkpoint_count(100.0, 2.0, mtbf=50.0) == \
        round(100.0 / (2.0 * 50.0 * 2.0) ** 0.5)
    assert optimal_checkpoint_count(10.0, 0.0) == 1
    assert optimal_checkpoint_count(1e-9, 3.52) == 1   # never zero


def test_optimal_count_scales_with_disk_speed():
    fast = optimal_checkpoint_count(100.0, 0.03)
    slow = optimal_checkpoint_count(100.0, 3.52)
    assert fast > slow


def test_paper_eq2_literal():
    assert paper_eq2_checkpoint_count(35.2, 3.52) == 10
    assert paper_eq2_checkpoint_count(1.0, 0.0) == 1
    assert paper_eq2_checkpoint_count(0.5, 3.52) == 1


def test_checkpoint_interval_steps():
    assert checkpoint_interval_steps(100, 4) == 25
    assert checkpoint_interval_steps(10, 0) == 10
    assert checkpoint_interval_steps(7, 3) == 2


def test_write_restore_roundtrip_charges_io(opl):
    disk = Disk()

    async def main(ctx):
        stats = CheckpointStats()
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 4, 4,
                                         PROB.stable_dt(4))
        await sol.step(3)
        await write_checkpoint(ctx, disk, 0, ctx.comm.rank, sol, stats)
        saved = sol.u.copy()
        await sol.step(3)
        restored = await restore_checkpoint(ctx, disk, 0, ctx.comm, sol,
                                            sol.dims, stats)
        assert restored == 3
        assert np.allclose(sol.u, saved)
        assert stats.writes == 1
        assert stats.write_time >= opl.t_io
        assert stats.read_time > 0
        return ctx.wtime()

    res, _ = run(2, main, machine=opl)
    assert res[0] >= opl.t_io


def test_coordinated_restore_rolls_back_to_common_step():
    """One member missed the last checkpoint round: the whole group must
    restore the latest *common* step."""
    disk = Disk()

    async def main(ctx):
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 4, 4,
                                         PROB.stable_dt(4))
        await sol.step(4)
        await write_checkpoint(ctx, disk, 0, ctx.comm.rank, sol)
        await sol.step(4)
        if ctx.rank == 0:  # rank 1 "died" before writing round 2
            await write_checkpoint(ctx, disk, 0, ctx.comm.rank, sol)
        restored = await restore_checkpoint(ctx, disk, 0, ctx.comm, sol,
                                            sol.dims)
        return (restored, sol.step_count)

    res, _ = run(2, main)
    assert res == [(4, 4), (4, 4)]


def test_restore_step_rerestore_bit_identical():
    """Restoring, stepping (in place, via the ``*_into`` kernels), and
    restoring again must give bit-identical state both times — the
    aliasing bug made the second restore return post-failure garbage."""
    disk = Disk()

    async def main(ctx):
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 4, 4,
                                         PROB.stable_dt(4))
        await sol.step(3)
        await write_checkpoint(ctx, disk, 0, ctx.comm.rank, sol)
        await restore_checkpoint(ctx, disk, 0, ctx.comm, sol, sol.dims)
        first = sol.u.copy()
        await sol.step(5)          # mutate the restored array in place
        await restore_checkpoint(ctx, disk, 0, ctx.comm, sol, sol.dims)
        assert sol.step_count == 3
        return np.array_equal(first, sol.u)  # bit-identical, not allclose

    res, _ = run(2, main)
    assert res == [True, True]


def test_restore_without_any_checkpoint_resets_to_initial():
    disk = Disk()

    async def main(ctx):
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 4, 4,
                                         PROB.stable_dt(4))
        u0 = sol.u.copy()
        await sol.step(5)
        restored = await restore_checkpoint(ctx, disk, 0, ctx.comm, sol,
                                            sol.dims)
        assert restored == 0
        assert np.allclose(sol.u, u0)
        return sol.step_count

    res, _ = run(2, main)
    assert res == [0, 0]


def _on_grid(ctx, dims, lx, ly):
    return DistributedAdvectionSolver(ctx, ctx.comm, PROB, lx, ly,
                                      PROB.stable_dt(max(lx, ly)), dims=dims)


@pytest.mark.parametrize("old, new, torn", [
    ((4, 1), (3, 1), False), ((1, 4), (1, 3), False),
    ((2, 2), (3, 1), False), ((2, 2), (2, 2), False),
    ((2, 2), (1, 1), False), ((2, 2), (3, 1), True)],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple)
    else ("torn" if v else "whole"))
def test_restore_reads_block_overlaps_onto_any_grid(old, new, torn):
    """A group over ``old`` dims checkpoints a known field at steps 4, 8
    and 12; a group over ``new`` dims restores it, every block equal to
    its slice of the field.  With ``torn``, old rank 0's step-12 snapshot
    has the wrong shape, so the group falls back to step 8."""
    lx, ly = 4, 3
    disk = Disk()

    def field(step):
        return np.arange(16.0 * 8).reshape(16, 8) + 1000.0 * step

    async def write(ctx):
        sol = _on_grid(ctx, old, lx, ly)
        for step in (4, 8, 12):
            sol.u = np.ascontiguousarray(field(step)[sol._block(ctx.rank)])
            if torn and step == 12 and ctx.rank == 0:
                sol.u = sol.u[:-1]
            sol.step_count = step
            await write_checkpoint(ctx, disk, 0, ctx.rank, sol)

    async def restore(ctx):
        sol = _on_grid(ctx, new, lx, ly)
        step = await restore_checkpoint(ctx, disk, 0, ctx.comm, sol, old)
        want = field(step)[sol._block(ctx.rank)]
        return step, sol.step_count, np.array_equal(sol.u, want)

    run(old[0] * old[1], write)
    res, _ = run(new[0] * new[1], restore)
    step = 8 if torn else 12
    assert res == [(step, step, True)] * (new[0] * new[1])
