"""Cross-layer integration scenarios not covered by module tests."""

import numpy as np
import pytest

from repro.core import AppConfig, run_app
from repro.core.serial_app import run_serial
from repro.ft.failure_injection import Kill
from repro.machine import Hostfile
from repro.machine.presets import IDEAL, OPL, OPL_FIXED_ULFM, RAIJIN
from repro.mpi import Universe
from repro.pde import DiffusionProblem


def test_determinism_identical_runs_bit_identical():
    """Two complete app runs with failures produce identical metrics."""
    def one():
        cfg = AppConfig(n=6, level=4, technique_code="AC", steps=16,
                        diag_procs=2)
        return run_app(cfg, OPL, kills=[Kill(5, 0.00005)])

    a, b = one(), one()
    assert a.error_l1 == b.error_l1
    assert a.t_total == b.t_total
    assert a.failed_ranks == b.failed_ranks
    assert a.coefficients == b.coefficients


def test_machine_swap_changes_time_not_numerics():
    cfg = lambda: AppConfig(n=6, level=4, technique_code="CR", steps=16,
                            diag_procs=2, checkpoint_count=4)
    m_opl = run_app(cfg(), OPL)
    m_rai = run_app(cfg(), RAIJIN)
    m_ideal = run_app(cfg(), IDEAL)
    assert m_opl.error_l1 == m_rai.error_l1 == m_ideal.error_l1
    assert m_opl.t_total > m_rai.t_total > m_ideal.t_total == 0.0


def test_fixed_ulfm_machine_recovers_identically():
    cfg = lambda: AppConfig(n=6, level=4, technique_code="AC", steps=16,
                            diag_procs=2)
    t = run_app(cfg(), OPL).t_solve
    m_beta = run_app(cfg(), OPL, kills=[Kill(5, t * 0.5)])
    m_fixed = run_app(cfg(), OPL_FIXED_ULFM, kills=[Kill(5, t * 0.5)])
    # identical numerics, both recover (the cost comparison at meaningful
    # scale lives in benchmarks/test_ablation_collectives.py)
    assert m_beta.error_l1 == pytest.approx(m_fixed.error_l1, rel=1e-12)
    assert m_beta.t_reconstruct > 0 and m_fixed.t_reconstruct > 0


def test_two_independent_universes_do_not_interfere():
    async def main(ctx):
        return await ctx.comm.allreduce(ctx.rank)

    u1, u2 = Universe(IDEAL), Universe(IDEAL)
    j1 = u1.launch(3, main)
    j2 = u2.launch(5, main)
    u1.run()
    u2.run()
    assert j1.results() == [3, 3, 3]
    assert j2.results() == [10] * 5


def test_serial_and_parallel_agree_on_diffusion():
    prob = DiffusionProblem(kappa=0.05)
    s = run_serial(n=6, level=4, technique_code="AC", steps=16,
                   lost_gids=(1,), problem=prob, cfl=0.2)
    cfg = AppConfig(n=6, level=4, technique_code="AC", steps=16,
                    diag_procs=2, problem=prob, cfl=0.2,
                    simulated_lost_gids=(1,))
    p = run_app(cfg, IDEAL)
    assert s.error_l1 == pytest.approx(p.error_l1, rel=1e-10)


def test_tracer_captures_full_recovery_story():
    from repro.core.app import app_main
    from repro.core.runner import make_universe
    from repro.mpi.tracing import Tracer

    cfg = AppConfig(n=6, level=4, technique_code="AC", steps=16,
                    diag_procs=2)
    base = run_app(AppConfig(n=6, level=4, technique_code="AC", steps=16,
                             diag_procs=2), OPL)
    uni, total = make_universe(cfg, OPL)
    uni.tracer = Tracer()
    job = uni.launch(total, app_main, argv=(cfg,))
    uni.kill_rank(job, 5, at=base.t_solve * 0.5)
    uni.run()
    kinds = {e.kind for e in uni.tracer.events}
    assert {"send", "coll", "kill", "spawn"} <= kinds
    coll_ops = {e.op for e in uni.tracer.filter(kind="coll")}
    # the recovery protocol's signature operations all appear
    assert {"shrink", "agree", "merge", "split", "spawn_multiple",
            "barrier", "gather"} <= coll_ops


def test_hostfile_too_small_rejected():
    cfg = AppConfig(n=6, level=4, technique_code="RC", diag_procs=2)
    total = cfg.layout().total_procs
    hf = Hostfile.uniform(1, slots=total - 1)
    uni = Universe(OPL, hostfile=hf)
    with pytest.raises((RuntimeError, IndexError)):
        uni.launch(total, lambda ctx: None)


def test_stats_accumulate_over_whole_run():
    from repro.core.app import app_main
    from repro.core.runner import make_universe

    cfg = AppConfig(n=6, level=4, technique_code="CR", steps=16,
                    diag_procs=2, checkpoint_count=4)
    uni, total = make_universe(cfg, OPL)
    job = uni.launch(total, app_main, argv=(cfg,))
    uni.run()
    s = uni.stats
    assert s.messages > 0
    assert s.collectives["barrier"] > 0
    assert s.collectives["gather"] >= total   # combination gathers
    assert s.kills == 0 and s.spawns == 0
