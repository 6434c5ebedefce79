"""The second PDE: 2D heat equation through the same machinery."""

import numpy as np
import pytest

from repro.pde import (AdvectionProblem, DiffusionProblem,
                       DistributedAdvectionSolver, SerialAdvectionSolver, l1)
from repro.pde.verification import convergence_study, observed_orders

from ..conftest import run_ranks as run

PROB = DiffusionProblem(kappa=0.05)


def test_exact_solution_decays():
    xs = np.linspace(0, 1, 17)
    u0 = PROB.exact(xs, xs, 0.0)
    u1 = PROB.exact(xs, xs, 0.1)
    assert np.abs(u1).max() < np.abs(u0).max()
    assert np.allclose(u0, PROB.initial_on(xs, xs))


def test_stable_dt_scales_quadratically():
    assert PROB.stable_dt(5) == pytest.approx(PROB.stable_dt(4) / 4)


def test_serial_diffusion_accuracy():
    dt = PROB.stable_dt(5)
    s = SerialAdvectionSolver(PROB, 5, 5, dt)
    s.step(200)
    err = l1(s.nodal(), s.exact_nodal())
    # relative to the decayed amplitude the error is small
    amp = np.abs(s.exact_nodal()).max()
    assert err < 0.02 * max(amp, 1e-12)


def test_diffusion_convergence_second_order_in_space():
    study = convergence_study(PROB, levels=(4, 5, 6), t_end=0.02, cfl=0.2)
    errors = [e for _l, e in study]
    orders = observed_orders(errors)
    # FTCS with dt ~ h^2 converges at 2nd order in h
    assert all(o > 1.7 for o in orders), orders


def test_parallel_diffusion_matches_serial():
    async def main(ctx):
        dt = PROB.stable_dt(5)
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 5, 4, dt)
        await sol.step(10)
        return await sol.gather_full(0)

    res, _ = run(4, main)
    ref = SerialAdvectionSolver(PROB, 5, 4, PROB.stable_dt(5))
    ref.step(10)
    assert np.allclose(res[0], ref.u, atol=1e-14)


def test_parallel_diffusion_axis1_path():
    async def main(ctx):
        dt = PROB.stable_dt(5)
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 3, 5, dt)
        await sol.step(10)
        return await sol.gather_full(0)

    res, _ = run(4, main)
    ref = SerialAdvectionSolver(PROB, 3, 5, PROB.stable_dt(5))
    ref.step(10)
    assert np.allclose(res[0], ref.u, atol=1e-14)


def test_parallel_diffusion_2d_blocks():
    async def main(ctx):
        dt = PROB.stable_dt(4)
        sol = DistributedAdvectionSolver(ctx, ctx.comm, PROB, 4, 4, dt,
                                         dims=(2, 2))
        await sol.step(10)
        return await sol.gather_full(0)

    res, _ = run(4, main)
    ref = SerialAdvectionSolver(PROB, 4, 4, PROB.stable_dt(4))
    ref.step(10)
    assert np.allclose(res[0], ref.u, atol=1e-14)


def test_full_app_on_diffusion():
    """The entire fault-tolerant combination app runs on the heat equation:
    AC recovery of a lost grid with accuracy intact."""
    from repro.core import AppConfig, run_app
    from repro.machine.presets import IDEAL

    base_cfg = AppConfig(n=6, level=4, technique_code="AC", steps=32,
                         diag_procs=2, problem=PROB, cfl=0.2)
    base = run_app(base_cfg, IDEAL)
    assert np.isfinite(base.error_l1)
    cfg = AppConfig(n=6, level=4, technique_code="AC", steps=32,
                    diag_procs=2, problem=PROB, cfl=0.2,
                    simulated_lost_gids=(1,))
    hit = run_app(cfg, IDEAL)
    assert base.error_l1 <= hit.error_l1 < 100 * base.error_l1


def test_full_app_diffusion_real_failure():
    from repro.core import AppConfig, run_app
    from repro.ft.failure_injection import Kill
    from repro.machine.presets import OPL

    base = run_app(AppConfig(n=6, level=4, technique_code="CR", steps=16,
                             diag_procs=2, problem=PROB, cfl=0.2), OPL)
    m = run_app(AppConfig(n=6, level=4, technique_code="CR", steps=16,
                          diag_procs=2, problem=PROB, cfl=0.2), OPL,
                kills=[Kill(5, base.t_solve * 0.5)])
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)
