"""Distributed solver: equivalence with the serial stepper, state motion."""

import numpy as np
import pytest

from repro.pde import (AdvectionProblem, DistributedAdvectionSolver,
                       SerialAdvectionSolver)

from ..conftest import run_ranks as run

PROB = AdvectionProblem(velocity=(1.0, 0.5))


def serial_reference(lx, ly, steps):
    s = SerialAdvectionSolver(PROB, lx, ly, PROB.stable_dt(max(lx, ly)))
    s.step(steps)
    return s.u


@pytest.mark.parametrize("nprocs,lx,ly", [
    (1, 4, 4), (2, 4, 4), (4, 5, 3), (3, 5, 5), (4, 3, 5), (8, 5, 4),
])
def test_parallel_matches_serial(nprocs, lx, ly):
    async def main(ctx):
        dt = PROB.stable_dt(max(lx, ly))
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, lx, ly, dt)
        await sol.step(12)
        return await sol.gather_full(0)

    res, _ = run(nprocs, main)
    ref = serial_reference(lx, ly, 12)
    if lx >= ly:
        # slabs along x feed the one kernel the same points as the serial
        # solver, so the result is the same to the last bit
        assert np.array_equal(res[0], ref)
    else:
        # slabs along y present the block transposed: the kernel adds the
        # x and y neighbours in the other order
        assert np.allclose(res[0], ref, atol=1e-13)


def test_gather_nodal_shape():
    async def main(ctx):
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 4, 3,
                                         PROB.stable_dt(4))
        nod = await sol.gather_nodal(0)
        return None if nod is None else nod.shape

    res, _ = run(2, main)
    assert res[0] == (17, 9)
    assert res[1] is None


def test_scatter_full_replaces_state():
    async def main(ctx):
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 4, 4,
                                         PROB.stable_dt(4))
        new = np.full((16, 16), 7.0) if ctx.comm.rank == 0 else None
        await sol.scatter_full(new, 0, step_count=99)
        full = await sol.gather_full(0)
        return (sol.step_count, None if full is None else float(full.mean()))

    res, _ = run(4, main)
    assert all(r[0] == 99 for r in res)
    assert res[0][1] == 7.0


def test_snapshot_restore_roundtrip():
    async def main(ctx):
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 4, 4,
                                         PROB.stable_dt(4))
        await sol.step(5)
        snap = sol.snapshot()
        await sol.step(5)
        sol.restore(snap)
        assert sol.step_count == 5
        return await sol.gather_full(0)

    res, _ = run(2, main)
    ref = serial_reference(4, 4, 5)
    assert np.allclose(res[0], ref)


def test_restore_wrong_grid_rejected():
    async def main(ctx):
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 4, 4,
                                         PROB.stable_dt(4))
        snap = sol.snapshot()
        snap["level_x"] = 5
        with pytest.raises(ValueError):
            sol.restore(snap)
        return True

    res, _ = run(1, main)
    assert res == [True]


def test_rebind_validates_shape():
    async def main(ctx):
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 4, 4,
                                         PROB.stable_dt(4))
        dup = await ctx.comm.dup()
        sol.rebind(dup)  # same size/rank: fine
        smaller = await ctx.comm.split(0 if ctx.rank == 0 else 1, ctx.rank)
        if smaller.size != ctx.comm.size:
            with pytest.raises(ValueError):
                sol.rebind(smaller)
        return True

    res, _ = run(2, main)
    assert all(res)


def test_decomposition_axis_follows_long_dimension():
    async def main(ctx):
        a = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 5, 3,
                                       PROB.stable_dt(5))
        b = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 3, 5,
                                       PROB.stable_dt(5))
        return (a.axis, b.axis, a.u.shape, b.u.shape)

    res, _ = run(4, main)
    axis_a, axis_b, shape_a, shape_b = res[0]
    assert axis_a == 0 and axis_b == 1
    assert shape_a == (8, 8)   # 32/4 x 8
    assert shape_b == (8, 8)   # 8 x 32/4


def test_step_charges_compute(opl):
    async def main(ctx):
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 4, 4,
                                         PROB.stable_dt(4), compute_scale=2.0)
        await sol.step(1)
        return ctx.wtime()

    res, _ = run(1, main, machine=opl)
    from repro.pde import FLOPS_PER_POINT
    expected = FLOPS_PER_POINT * 256 * 2.0 / opl.flop_rate
    assert res[0] == pytest.approx(expected, rel=1e-6)
