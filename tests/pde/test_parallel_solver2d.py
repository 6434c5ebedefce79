"""2D block-decomposed solver: equivalence with serial, state motion."""

import numpy as np
import pytest

from repro.pde import AdvectionProblem, SerialAdvectionSolver
from repro.pde.parallel_solver2d import (Distributed2DAdvectionSolver,
                                         choose_dims)

from ..conftest import run_ranks as run

PROB = AdvectionProblem(velocity=(1.0, 0.5))


def serial_reference(lx, ly, steps):
    s = SerialAdvectionSolver(PROB, lx, ly, PROB.stable_dt(max(lx, ly)))
    s.step(steps)
    return s.u


@pytest.mark.parametrize("nprocs,lx,ly", [
    (1, 4, 4), (2, 4, 4), (4, 4, 4), (6, 4, 4), (4, 5, 3), (8, 4, 5),
    (9, 4, 4),
])
def test_2d_parallel_matches_serial(nprocs, lx, ly):
    async def main(ctx):
        dt = PROB.stable_dt(max(lx, ly))
        sol = await Distributed2DAdvectionSolver.create(
            ctx, ctx.comm, PROB, lx, ly, dt)
        await sol.step(12)
        return await sol.gather_full(0)

    res, _ = run(nprocs, main)
    ref = serial_reference(lx, ly, 12)
    assert np.array_equal(res[0], ref)  # same kernel, same points: same bits


def test_choose_dims_orients_to_grid():
    assert choose_dims(4, 5, 3) in ((2, 2),)
    px, py = choose_dims(8, 6, 3)
    assert px >= py and px * py == 8
    px, py = choose_dims(8, 3, 6)
    assert py >= px


def test_choose_dims_never_overdecomposes():
    px, py = choose_dims(8, 2, 6)   # x axis has only 4 points
    assert px <= 4 and px * py == 8


def test_2d_scatter_gather_roundtrip():
    async def main(ctx):
        dt = PROB.stable_dt(4)
        sol = await Distributed2DAdvectionSolver.create(
            ctx, ctx.comm, PROB, 4, 4, dt)
        full0 = await sol.gather_full(0)
        await sol.scatter_full(full0, 0, step_count=5)
        full1 = await sol.gather_full(0)
        if ctx.rank == 0:
            assert np.allclose(full0, full1)
        return sol.step_count

    res, _ = run(4, main)
    assert res == [5, 5, 5, 5]


def test_2d_snapshot_restore():
    async def main(ctx):
        dt = PROB.stable_dt(4)
        sol = await Distributed2DAdvectionSolver.create(
            ctx, ctx.comm, PROB, 4, 4, dt)
        await sol.step(3)
        snap = sol.snapshot()
        await sol.step(3)
        sol.restore(snap)
        return (sol.step_count, await sol.gather_full(0))

    res, _ = run(4, main)
    assert res[0][0] == 3
    assert np.allclose(res[0][1], serial_reference(4, 4, 3))


def test_2d_gather_nodal_shape():
    async def main(ctx):
        dt = PROB.stable_dt(5)
        sol = await Distributed2DAdvectionSolver.create(
            ctx, ctx.comm, PROB, 5, 3, dt)
        nod = await sol.gather_nodal(0)
        return None if nod is None else nod.shape

    res, _ = run(4, main)
    assert res[0] == (33, 9)


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
