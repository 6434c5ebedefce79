"""End-to-end application behaviour: baselines, simulated losses, real
failures with reconstruction, metrics."""

import numpy as np
import pytest

from repro.core import (AppConfig, baseline_solve_time, choose_lost_grids,
                        plan_failures, run_app)
from repro.ft.failure_injection import Kill
from repro.machine.presets import IDEAL, OPL, RAIJIN


def cfg_for(code, **kw):
    defaults = dict(n=6, level=4, technique_code=code, steps=16,
                    diag_procs=2, checkpoint_count=4)
    defaults.update(kw)
    return AppConfig(**defaults)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("code,world", [("CR", 11), ("RC", 19), ("AC", 14)])
def test_baseline_runs_and_world_sizes(code, world):
    m = run_app(cfg_for(code), IDEAL)
    assert m.world_size == world
    assert m.lost_gids == []
    assert not m.real_failures
    assert np.isfinite(m.error_l1) and m.error_l1 < 1e-2
    assert m.steps == 16 and m.n == 6


def test_all_techniques_same_baseline_error():
    errs = {code: run_app(cfg_for(code), IDEAL).error_l1
            for code in ("CR", "RC", "AC")}
    assert errs["CR"] == pytest.approx(errs["RC"], rel=1e-12)
    assert errs["CR"] == pytest.approx(errs["AC"], rel=1e-12)


def test_combined_array_collection():
    m = run_app(cfg_for("AC", collect_arrays=True), IDEAL)
    assert m.combined is not None
    assert m.combined.shape == (65, 65)


def test_combination_beats_single_grid_accuracy():
    """The sparse-grid combination must beat its coarsest component."""
    from repro.pde import AdvectionProblem, SerialAdvectionSolver, l1
    m = run_app(cfg_for("CR", collect_arrays=True), IDEAL)
    prob = AdvectionProblem()
    s = SerialAdvectionSolver(prob, 3, 3, m.dt)
    s.step(16)
    coarse_err = l1(s.nodal(), s.exact_nodal())
    assert m.error_l1 < coarse_err


def test_wrong_launch_size_rejected():
    from repro.mpi import Universe
    from repro.core.app import app_main
    uni = Universe(IDEAL)
    job = uni.launch(5, app_main, argv=(cfg_for("CR"),))
    with pytest.raises(Exception):
        uni.run()


# ---------------------------------------------------------------------------
# simulated losses (Figs. 9/10 mode)
# ---------------------------------------------------------------------------
def test_cr_simulated_loss_recovers_exactly():
    base = run_app(cfg_for("CR"), IDEAL)
    m = run_app(cfg_for("CR", simulated_lost_gids=(2,)), IDEAL)
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)
    assert m.lost_gids == [2]
    assert m.recompute_steps > 0


def test_rc_simulated_diagonal_loss_exact_copy():
    base = run_app(cfg_for("RC"), IDEAL)
    m = run_app(cfg_for("RC", simulated_lost_gids=(1,)), IDEAL)
    # replica copy is exact: error identical to baseline
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_rc_simulated_lower_loss_resample_approximate():
    base = run_app(cfg_for("RC"), IDEAL)
    m = run_app(cfg_for("RC", simulated_lost_gids=(4,)), IDEAL)
    assert m.error_l1 > base.error_l1  # resampling breaks cancellation


def test_ac_simulated_loss_moderate_error():
    base = run_app(cfg_for("AC"), IDEAL)
    m = run_app(cfg_for("AC", simulated_lost_gids=(1,)), IDEAL)
    assert base.error_l1 < m.error_l1 < 10 * base.error_l1
    # the lost grid's index cannot carry a combination coefficient
    from repro.sparsegrid import CombinationScheme
    lost_ix = CombinationScheme(6, 4, extra_layers=2)[1].index
    assert lost_ix not in m.coefficients


def test_ac_lost_extra_layer_grid_harmless():
    base = run_app(cfg_for("AC"), IDEAL)
    m = run_app(cfg_for("AC", simulated_lost_gids=(8,)), IDEAL)
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_multiple_simulated_losses():
    m = run_app(cfg_for("AC", simulated_lost_gids=(1, 3, 5)), IDEAL)
    assert m.lost_gids == [1, 3, 5]
    assert np.isfinite(m.error_l1)


def test_cr_checkpoint_accounting(opl):
    m = run_app(cfg_for("CR"), opl)
    assert m.checkpoint_writes == 3          # 4 segments, interior writes
    assert m.checkpoint_write_time == pytest.approx(3 * opl.t_io, rel=0.01)
    m2 = run_app(cfg_for("CR", simulated_lost_gids=(1,)), opl)
    assert m2.checkpoint_read_time > 0
    assert m2.t_recovery > 0


def test_raijin_cheaper_checkpoints_than_opl():
    t_opl = run_app(cfg_for("CR"), OPL).t_total
    t_raijin = run_app(cfg_for("CR"), RAIJIN).t_total
    assert t_raijin < t_opl / 10


# ---------------------------------------------------------------------------
# real failures
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("code", ["CR", "RC", "AC"])
def test_single_real_failure_recovers(code):
    cfg = cfg_for(code)
    t = baseline_solve_time(cfg, OPL)
    kills = plan_failures(cfg, 1, max(t * 0.5, 1e-9), seed=4)
    m = run_app(cfg_for(code), OPL, kills=kills)
    assert m.real_failures
    assert m.n_failures == 1
    assert len(m.lost_gids) >= 1
    assert m.t_reconstruct > 0
    assert np.isfinite(m.error_l1)
    base = run_app(cfg_for(code), IDEAL)
    assert m.error_l1 < 100 * base.error_l1


@pytest.mark.parametrize("code", ["CR", "RC", "AC"])
def test_double_real_failure_recovers(code):
    cfg = cfg_for(code)
    t = baseline_solve_time(cfg, OPL)
    kills = plan_failures(cfg, 2, max(t * 0.5, 1e-9), seed=7)
    m = run_app(cfg_for(code), OPL, kills=kills)
    assert m.n_failures == 2
    assert np.isfinite(m.error_l1)


def test_cr_real_failure_error_equals_baseline():
    """CR recovery is exact even for real mid-run failures."""
    base = run_app(cfg_for("CR"), OPL)
    m = run_app(cfg_for("CR"), OPL, kills=[Kill(7, base.t_solve * 0.6)])
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)
    assert m.recompute_steps > 0


def test_sequential_failures_different_segments():
    base = run_app(cfg_for("CR"), OPL)
    kills = [Kill(5, base.t_solve * 0.3), Kill(9, base.t_solve * 0.8)]
    m = run_app(cfg_for("CR"), OPL, kills=kills)
    assert m.n_failures == 2
    assert sorted(m.failed_ranks) == [5, 9]
    assert len(m.lost_gids) == 2
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_two_failures_cost_more_than_one(opl):
    cfg = cfg_for("AC", n=7, diag_procs=16, layout_mode="sweep", steps=8)
    t = baseline_solve_time(cfg, opl)
    m1 = run_app(cfg_for("AC", n=7, diag_procs=16, layout_mode="sweep",
                         steps=8), opl,
                 kills=plan_failures(cfg, 1, t * 0.5, seed=0))
    m2 = run_app(cfg_for("AC", n=7, diag_procs=16, layout_mode="sweep",
                         steps=8), opl,
                 kills=plan_failures(cfg, 2, t * 0.5, seed=0))
    assert m2.t_reconstruct > 5 * m1.t_reconstruct  # the beta-ULFM blow-up


def test_metrics_to_dict_roundtrip():
    m = run_app(cfg_for("AC", simulated_lost_gids=(1,)), IDEAL)
    d = m.to_dict()
    assert d["technique"] == "AC"
    assert "combined" not in d
    assert isinstance(next(iter(d["coefficients"])), str)
    assert m.t_app_excl_reconstruct == pytest.approx(
        m.t_total - m.t_reconstruct)


def test_compute_scale_multiplies_solve_time(opl):
    """At a large scale factor the (unscaled) communication time is noise
    and solve time is the scaled compute estimate."""
    cfg = cfg_for("AC", compute_scale=1000.0)
    est = cfg.estimated_solve_time(opl)
    t1000 = run_app(cfg, opl).t_solve
    assert t1000 == pytest.approx(est, rel=0.05)
    t1 = run_app(cfg_for("AC"), opl).t_solve
    assert t1000 > 50 * t1


def test_estimated_solve_time_is_compute_lower_bound(opl):
    """The analytic estimate covers compute only; the measured solve adds
    halo traffic and detection, so it brackets from below."""
    cfg = cfg_for("AC")
    est = cfg.estimated_solve_time(opl)
    measured = run_app(cfg_for("AC"), opl).t_solve
    assert est <= measured <= 20 * est


def test_auto_checkpoint_count(opl):
    cfg = cfg_for("CR", checkpoint_count=None, compute_scale=1e6)
    m = run_app(cfg, opl)
    assert m.checkpoint_writes >= 1


def test_spare_placement_through_app():
    from repro.ft import PLACE_SPARE
    cfg = cfg_for("AC", placement=PLACE_SPARE)
    t = baseline_solve_time(cfg, OPL)
    kills = plan_failures(cfg, 1, max(t * 0.5, 1e-9), seed=2)
    m = run_app(cfg_for("AC", placement=PLACE_SPARE), OPL, kills=kills,
                n_spares=2)
    assert m.n_failures == 1
    assert np.isfinite(m.error_l1)


# ---------------------------------------------------------------------------
# rank-0 failure (the control rank is killable too)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("code", ["CR", "RC", "AC"])
def test_rank_zero_failure_recovers(code):
    """Killing rank 0 must recover like any other rank: the loss set is
    an allgather union and the CR horizon a MAX-allreduce, so the
    re-spawned replacement — which joins with an empty failure record and
    no segment target — cannot poison either agreement."""
    base = run_app(cfg_for(code), OPL)
    m = run_app(cfg_for(code), OPL, kills=[Kill(0, base.t_solve * 0.6)])
    assert m.real_failures
    assert m.n_failures == 1
    assert 0 in m.failed_ranks
    assert len(m.lost_gids) >= 1
    assert np.isfinite(m.error_l1)


def test_cr_rank_zero_failure_error_equals_baseline():
    base = run_app(cfg_for("CR"), OPL)
    m = run_app(cfg_for("CR"), OPL, kills=[Kill(0, base.t_solve * 0.6)])
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)
    assert m.recompute_steps > 0


# ---------------------------------------------------------------------------
# a count guard, not a stopwatch: a healthy solve is one event per rank
# ---------------------------------------------------------------------------
def test_wide_failure_free_run_costs_segments_not_steps():
    """One ``ranks_wide`` point (392 ranks, slabs of 2-4 rows).  Stepped
    rank by rank it is 4 events per rank per step (16 856 in all); stepped
    as co-simulated segments it is one per rank per segment (4 704) for the
    same messages — a regression to per-step events fails on any host."""
    from repro.core.app import app_main
    from repro.core.runner import make_universe
    from repro.mpi.tracing import Tracer

    def run(traced):
        cfg = AppConfig(technique_code="AC", n=8, level=4, steps=8,
                        diag_procs=64, layout_mode="paper")
        uni, total = make_universe(cfg, OPL)
        if traced:
            uni.tracer = Tracer()
        job = uni.launch(total, app_main, argv=(cfg,))
        uni.run()
        return uni, job.results()[0]

    uni, metrics = run(traced=False)
    assert metrics.world_size == 392
    assert uni.engine.events_processed <= 6000
    assert uni.stats.messages == 6272
    oracle, oracle_metrics = run(traced=True)
    assert oracle.engine.events_processed > 16856
    assert oracle.stats.messages == 6272
    assert oracle.stats.bytes_sent == uni.stats.bytes_sent
    assert metrics.to_dict() == oracle_metrics.to_dict()


def test_wide_failure_free_run_pays_per_grid_costs_once_per_grid(
        monkeypatch):
    """The same 392-rank point, counted where per-rank and per-step fixed
    costs used to be paid: each grid's initial field is computed once (a
    group's members copy their blocks out of it), no segment walks the
    ring clocks (every member enters each one in one instant with one
    charge), and a co-simulated segment binds the kernel once per buffer
    direction, not once per step."""
    from repro.core.app import app_main
    from repro.core.runner import make_universe
    from repro.mpi.matching import RingClocks
    from repro.pde import AdvectionProblem, lax_wendroff
    from repro.pde.advection import sinusoid
    from repro.pde.parallel_solver import DistributedAdvectionSolver

    counts = {"initial": 0, "walks": 0, "binds": 0, "segments": 0,
              "steps": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    def advance(solver, slabs, n):
        counts["steps"] += n
        return advance_group(solver, slabs, n)

    advance_group = DistributedAdvectionSolver._advance_group
    monkeypatch.setattr(DistributedAdvectionSolver, "_advance_group",
                        counted("segments", advance))
    monkeypatch.setattr(RingClocks, "start",
                        counted("walks", RingClocks.start))
    monkeypatch.setattr(lax_wendroff, "flat_windows",
                        counted("binds", lax_wendroff.flat_windows))
    cfg = AppConfig(technique_code="AC", n=8, level=4, steps=8,
                    diag_procs=64, layout_mode="paper",
                    problem=AdvectionProblem(
                        initial=counted("initial", sinusoid)))
    uni, total = make_universe(cfg, OPL)
    solve = uni.launch(total, app_main, argv=(cfg,))
    uni.run()
    assert solve.results()[0].world_size == 392
    grids = [a.ranks for a in cfg.layout().assignments]
    assert all(len(ranks) > 1 for ranks in grids)
    # one field per grid; the error check after the solve adds one exact
    # solution on the combined grid
    assert counts["initial"] == len(grids) + 1
    assert counts["walks"] == 0
    assert counts["segments"] > 0
    assert counts["binds"] <= 2 * counts["segments"] < counts["steps"]
