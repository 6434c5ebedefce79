"""Distributed solver: equivalence with the serial stepper, state motion.

A plain communicator is the "1d" ring of slabs; a Cartesian one brings its
process grid ``dims``, which the tests below run over.
"""

import numpy as np
import pytest

from repro.ft import Disk, restore_checkpoint, write_checkpoint
from repro.pde import (AdvectionProblem, DistributedAdvectionSolver,
                       SerialAdvectionSolver)

from ..conftest import run_ranks as run

PROB = AdvectionProblem(velocity=(1.0, 0.5))

#: one-row grids along x and y, and true 2-D grids
DIMS = [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (2, 4), (3, 3)]


def serial_reference(lx, ly, steps):
    s = SerialAdvectionSolver(PROB, lx, ly, PROB.stable_dt(max(lx, ly)))
    s.step(steps)
    return s.u


def on_grid(ctx, dims, lx, ly, problem=PROB):
    """A solver over the process grid ``dims`` (as ``_make_solver`` builds
    it)."""
    return DistributedAdvectionSolver(ctx, ctx.comm, problem, lx, ly,
                                      problem.stable_dt(max(lx, ly)),
                                      dims=dims)


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
    disk = Disk()

    async def main(ctx):
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 4, 4,
                                         PROB.stable_dt(4))
        await sol.step(5)
        await write_checkpoint(ctx, disk, 0, ctx.rank, sol)
        await sol.step(5)
        await restore_checkpoint(ctx, disk, 0, ctx.comm, sol, sol.dims)
        assert sol.step_count == 5
        return await sol.gather_full(0)

    res, _ = run(2, main)
    ref = serial_reference(4, 4, 5)
    assert np.allclose(res[0], ref)


def test_restore_wrong_grid_rejected():
    """A snapshot of another sub-grid is never restored: the restore falls
    back to the initial condition."""
    disk = Disk()

    async def main(ctx):
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 4, 4,
                                         PROB.stable_dt(4))
        u0 = sol.u.copy()
        await sol.step(2)
        snap = sol.snapshot()
        snap["level_x"] = 5
        disk.write(0, 0, snap)
        step = await restore_checkpoint(ctx, disk, 0, ctx.comm, sol, sol.dims)
        return step, np.array_equal(sol.u, u0)

    res, _ = run(1, main)
    assert res == [(0, True)]


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


# ----------------------------------------------------------------------
# process grids
# ----------------------------------------------------------------------
def dims_id(dims):
    return "x".join(map(str, dims))


@pytest.mark.parametrize("dims", DIMS, ids=dims_id)
@pytest.mark.parametrize("lx,ly", [(4, 4), (5, 3), (4, 5)])
def test_process_grid_matches_serial(dims, lx, ly):
    async def main(ctx):
        sol = on_grid(ctx, dims, lx, ly)
        await sol.step(12)
        return sol.axis, await sol.gather_full(0)

    res, _ = run(dims[0] * dims[1], main)
    axis, full = res[0]
    ref = serial_reference(lx, ly, 12)
    if axis == 0:
        # the block is unrotated: same kernel, same points, same bits
        assert np.array_equal(full, ref)
    else:
        # a ring along y presents its block transposed
        assert np.allclose(full, ref, atol=1e-13)


@pytest.mark.parametrize("dims", DIMS, ids=dims_id)
def test_two_phase_exchange_fills_corners(dims):
    """Every ghost cell, corners included, is the periodic neighbour's."""
    lx, ly = 4, 3
    nx, ny = 1 << lx, 1 << ly
    field = np.arange(nx * ny, dtype=float).reshape(nx, ny)

    async def main(ctx):
        sol = on_grid(ctx, dims, lx, ly)
        bx, by = sol._block(ctx.comm.rank)
        sol.u = np.ascontiguousarray(field[bx, by])
        w = (await sol.exchange_halos()).copy()
        xs = np.arange(bx.start - 1, bx.stop + 1) % nx
        ys = np.arange(by.start - 1, by.stop + 1) % ny
        ref = field[np.ix_(xs, ys)]
        return np.array_equal(w, ref.T if sol.axis else ref)

    res, _ = run(dims[0] * dims[1], main)
    assert all(res)


@pytest.mark.parametrize("dims", [(4, 1), (1, 4), (2, 2)], ids=dims_id)
def test_process_grid_scatter_gather_roundtrip(dims):
    async def main(ctx):
        sol = on_grid(ctx, dims, 4, 4)
        full0 = await sol.gather_full(0)
        await sol.scatter_full(full0, 0, step_count=5)
        full1 = await sol.gather_full(0)
        if ctx.rank == 0:
            assert np.array_equal(full0, full1)
        return sol.step_count, sol.u.flags.c_contiguous

    res, _ = run(4, main)
    assert res == [(5, True)] * 4


@pytest.mark.parametrize("dims", [(4, 1), (2, 2)], ids=dims_id)
def test_process_grid_snapshot_restore(dims):
    disk = Disk()

    async def main(ctx):
        sol = on_grid(ctx, dims, 4, 4)
        await sol.step(3)
        await write_checkpoint(ctx, disk, 0, ctx.rank, sol)
        await sol.step(3)
        await restore_checkpoint(ctx, disk, 0, ctx.comm, sol, dims)
        return (sol.step_count, await sol.gather_full(0))

    res, _ = run(4, main)
    assert res[0][0] == 3
    assert np.array_equal(res[0][1], serial_reference(4, 4, 3))


@pytest.mark.parametrize("dims", [(4, 1), (2, 2)], ids=dims_id)
def test_process_grid_gather_nodal_shape(dims):
    async def main(ctx):
        nod = await on_grid(ctx, dims, 5, 3).gather_nodal(0)
        return None if nod is None else nod.shape

    res, _ = run(4, main)
    assert res[0] == (33, 9)


def test_solver_rejects_a_grid_of_another_size():
    async def main(ctx):
        with pytest.raises(ValueError, match=r"needs 4 ranks"):
            on_grid(ctx, (2, 2), 4, 4)
        return on_grid(ctx, (3, 1), 4, 4).dims

    res, _ = run(3, main)
    assert res == [(3, 1)] * 3


@pytest.mark.parametrize("dims", [(2, 1), (2, 2)], ids=dims_id)
def test_rebind_to_a_plain_communicator_keeps_the_grid(dims):
    """A repair hands back a plain communicator; the process grid (and
    every neighbour) is the solver's own, so stepping goes on unchanged."""
    async def main(ctx):
        sol = on_grid(ctx, dims, 4, 4)
        await sol.step(2)
        sol.rebind(await ctx.comm.dup())
        assert sol.dims == dims
        await sol.step(2)
        return await sol.gather_full(0)

    res, _ = run(dims[0] * dims[1], main)
    assert np.array_equal(res[0], serial_reference(4, 4, 4))


def test_app_2d_equals_1d_numerics(ideal):
    from repro.core import AppConfig, run_app
    m1 = run_app(AppConfig(n=6, level=4, technique_code="RC", steps=16,
                           diag_procs=4, decomposition="1d"), ideal)
    m2 = run_app(AppConfig(n=6, level=4, technique_code="RC", steps=16,
                           diag_procs=4, decomposition="2d"), ideal)
    assert m1.error_l1 == pytest.approx(m2.error_l1, abs=1e-14)


def test_app_2d_with_simulated_loss(ideal):
    from repro.core import AppConfig, run_app
    m1 = run_app(AppConfig(n=6, level=4, technique_code="AC", steps=16,
                           diag_procs=4, decomposition="1d",
                           simulated_lost_gids=(1,)), ideal)
    m2 = run_app(AppConfig(n=6, level=4, technique_code="AC", steps=16,
                           diag_procs=4, decomposition="2d",
                           simulated_lost_gids=(1,)), ideal)
    assert m1.error_l1 == pytest.approx(m2.error_l1, abs=1e-14)


def test_app_2d_real_failure_recovery(opl):
    from repro.core import AppConfig, run_app
    from repro.ft.failure_injection import Kill
    base = run_app(AppConfig(n=6, level=4, technique_code="CR", steps=16,
                             diag_procs=4, decomposition="2d"), opl)
    m = run_app(AppConfig(n=6, level=4, technique_code="CR", steps=16,
                          diag_procs=4, decomposition="2d"), opl,
                kills=[Kill(6, base.t_solve * 0.6)])
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)
    assert m.lost_gids == [1]


@pytest.mark.parametrize("code", ["CR", "RC", "AC"])
def test_one_row_2d_run_is_the_1d_run(code):
    """At ``diag_procs=3`` every sub-grid's process grid has one row, so
    ``"2d"`` is the ``"1d"`` ring: same messages, same kernel orientation,
    same metrics to the last bit — quiet and with a seeded kill."""
    from repro.core import AppConfig, run_app
    from repro.ft.failure_injection import FailureGenerator, Kill
    from repro.machine.presets import OPL

    def metrics(decomposition, kills=()):
        cfg = AppConfig(n=6, level=4, technique_code=code, steps=8,
                        diag_procs=3, decomposition=decomposition)
        return run_app(cfg, OPL, kills=kills)

    quiet = metrics("1d")
    assert metrics("2d") == quiet
    layout = AppConfig(n=6, level=4, technique_code=code,
                       diag_procs=3).layout()
    victims = FailureGenerator(0, protect={0}, rank_to_grid=layout.gid_of
                               ).choose_victims(layout.total_procs, 1)
    kills = [Kill(r, 0.5 * quiet.t_solve) for r in victims]
    hit = metrics("1d", kills)
    assert hit.n_failures == 1
    assert metrics("2d", kills) == hit
