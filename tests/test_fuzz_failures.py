"""Failure-injection fuzzing: randomized kills against the full pipeline.

These are the highest-value integration tests in the suite: random victim
sets at random times (including Poisson-process failures and kills landing
mid-recovery) must always end in a completed run with a finite error —
never a deadlock, never an unhandled exception.
"""

import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AppConfig, baseline_solve_time, run_app
from repro.core.app import app_main
from repro.core.runner import make_universe
from repro.ft import recovery
from repro.ft.checkpoint import Disk, restore_checkpoint
from repro.ft.failure_injection import FailureGenerator, Kill
from repro.machine.presets import OPL
from repro.mpi.comm import CommHandle
from repro.mpi.tracing import Tracer
from repro.simkernel.errors import SimError

from .mpi.golden.record import canonical, norm, rename_jobs


def fuzz_run(code, kills, *, n=6, diag_procs=2, steps=16, n_spares=0,
             decomposition="1d", recovery_mode="respawn"):
    cfg = AppConfig(n=n, level=4, technique_code=code, steps=steps,
                    diag_procs=diag_procs, checkpoint_count=4,
                    decomposition=decomposition, recovery_mode=recovery_mode)
    uni, total = make_universe(cfg, OPL, n_spares=n_spares)
    job = uni.launch(total, app_main, argv=(cfg,))
    gen = FailureGenerator()
    gen.inject(uni, job, kills)
    uni.run()
    m = job.results()[0]
    assert m is not None, "rank 0 must survive and report"
    assert np.isfinite(m.error_l1)
    return m


def _solve_window(code, n=6, diag_procs=2, steps=16):
    cfg = AppConfig(n=n, level=4, technique_code=code, steps=steps,
                    diag_procs=diag_procs, checkpoint_count=4)
    m = run_app(cfg, OPL)
    return m.t_solve, m.t_total, cfg.layout()


# respawn cells keep their pre-mode ids (``[4-RC]``); the others append the
# mode (``[4-RC-shrink]``)
@pytest.mark.parametrize("code, recovery_mode", [
    pytest.param(code, mode,
                 id=code if mode == "respawn" else f"{code}-{mode}")
    for mode in ("respawn", "shrink", "nc") for code in ("CR", "RC", "AC")])
@pytest.mark.parametrize("seed", range(6))
def test_random_kills_during_solve(code, seed, recovery_mode):
    t_solve, _t_total, layout = _solve_window(code)
    pairs = layout.conflict_pairs_ranks() if code == "RC" else ()
    gen = FailureGenerator(seed, protect={0}, conflict_pairs=pairs,
                           rank_to_grid=layout.gid_of)
    n_failures = 1 + seed % 3
    frac = 0.15 + 0.7 * ((seed * 37) % 10) / 10.0
    kills = gen.plan(layout.total_procs, n_failures,
                     at=max(t_solve * frac, 1e-9))
    while recovery_mode == "nc" and any(
            {k.rank for k in kills}.issuperset(layout.group_ranks(g))
            for g in layout.grids_of_ranks(k.rank for k in kills)):
        # a grid with no survivor cannot rebuild itself: documented-fatal
        # in this mode (test_nc_full_grid_loss_is_fatal), so redraw
        kills = gen.plan(layout.total_procs, n_failures, at=kills[0].at)
    m = fuzz_run(code, kills, recovery_mode=recovery_mode)
    assert m.n_failures == n_failures
    assert len(m.lost_gids) >= 1
    if code == "CR":
        clean = run_app(AppConfig(n=6, level=4, technique_code="CR",
                                  steps=16, diag_procs=2,
                                  checkpoint_count=4), OPL)
        assert m.error_l1 == pytest.approx(clean.error_l1, rel=1e-12)


@pytest.mark.parametrize("code", ["CR", "AC"])
@pytest.mark.parametrize("seed", range(4))
def test_poisson_failures_over_the_run(code, seed):
    """MTBF-driven failures spread across the whole solve window."""
    t_solve, _, layout = _solve_window(code)
    gen = FailureGenerator(seed, protect={0},
                           rank_to_grid=layout.gid_of)
    horizon = max(t_solve * 0.9, 1e-6)
    kills = gen.poisson_plan(layout.total_procs, mtbf=horizon / 3.0,
                             horizon=horizon, max_failures=3)
    m = fuzz_run(code, kills)
    assert m.n_failures == len(kills)


@pytest.mark.parametrize("seed", range(4))
def test_staggered_kills_across_cr_segments(seed):
    """Failures landing in different checkpoint segments, one after the
    other, each repaired before the next hits.

    Earlier repairs stretch/compress the failed run's timeline relative to
    the clean run used for scheduling, so a late kill can land after the
    final detection point (and is then simply a process dying after the
    job finished) — at least the first two must be detected, and recovery
    stays exact regardless.
    """
    t_solve, t_total, layout = _solve_window("CR")
    gen = FailureGenerator(seed, protect={0}, rank_to_grid=layout.gid_of)
    victims = gen.choose_victims(layout.total_procs, 3)
    kills = [Kill(v, max(t_solve * f, 1e-9))
             for v, f in zip(victims, (0.15, 0.45, 0.7))]
    m = fuzz_run("CR", kills)
    assert 2 <= m.n_failures <= 3
    # exact recovery regardless of how many hits landed
    clean = run_app(AppConfig(n=6, level=4, technique_code="CR", steps=16,
                              diag_procs=2, checkpoint_count=4), OPL)
    assert m.error_l1 == pytest.approx(clean.error_l1, rel=1e-12)


@pytest.mark.parametrize("code", ["CR", "AC"])
def test_kill_landing_mid_reconstruction(code):
    """A second failure timed to land while the first repair is running
    (the repair-retry / Fig. 3 loop path).  The repair window is measured
    from a single-failure run of the same configuration."""
    t_solve, t_total, layout = _solve_window(code)
    gen = FailureGenerator(11, protect={0}, rank_to_grid=layout.gid_of)
    v1, v2 = gen.choose_victims(layout.total_procs, 2)
    t1 = max(t_solve * 0.5, 1e-9)
    probe = fuzz_run(code, [Kill(v1, t1)])
    assert probe.n_failures == 1
    window = probe.t_reconstruct + probe.t_detect
    assert window > 0
    kills = [Kill(v1, t1), Kill(v2, t1 + window * 0.5)]
    m = fuzz_run(code, kills)
    assert m.n_failures == 2


@pytest.mark.parametrize("code, recovery_mode", [
    pytest.param(code, mode,
                 id=code if mode == "respawn" else f"{code}-{mode}")
    for mode in ("respawn", "shrink", "nc") for code in ("CR", "RC", "AC")])
def test_fuzz_2d_decomposition(code, recovery_mode):
    """Under shrink a contracted 2-D grid is re-decomposed over its
    survivors and CR restores it from the launch-time blocks' checkpoints
    — not from step 0.  The result is not bit-equal: a (2, 2) grid that
    contracts to (1, 3) runs the transposed kernel.  nc rebuilds a 2-D
    grid in place, so its CR run equals the clean one too."""
    t_solve, _, layout = _solve_window(code, diag_procs=4)
    gen = FailureGenerator(5, protect={0},
                           conflict_pairs=layout.conflict_pairs_ranks()
                           if code == "RC" else (),
                           rank_to_grid=layout.gid_of)
    kills = gen.plan(layout.total_procs, 2, at=max(t_solve * 0.4, 1e-9))
    restored = []

    async def spy(*args, **kwargs):
        restored.append(await restore_checkpoint(*args, **kwargs))
        return restored[-1]

    with mock.patch.object(recovery, "restore_checkpoint", spy):
        m = fuzz_run(code, kills, diag_procs=4, decomposition="2d",
                     recovery_mode=recovery_mode)
    assert m.n_failures == 2
    if code == "CR" and recovery_mode != "respawn":
        clean = run_app(AppConfig(n=6, level=4, technique_code="CR",
                                  steps=16, diag_procs=4, checkpoint_count=4,
                                  decomposition="2d"), OPL)
        assert m.error_l1 == pytest.approx(clean.error_l1, rel=1e-12)
        assert restored and min(restored) > 0


def test_many_failures_half_the_grids():
    """Paper's extreme: up to 5 of the AC grids lost at once."""
    t_solve, _, layout = _solve_window("AC", diag_procs=2)
    gen = FailureGenerator(3, protect={0}, rank_to_grid=layout.gid_of)
    kills = gen.plan(layout.total_procs, 5, at=max(t_solve * 0.5, 1e-9))
    m = fuzz_run("AC", kills)
    assert m.n_failures == 5
    base = run_app(AppConfig(n=6, level=4, technique_code="AC", steps=16,
                             diag_procs=2), OPL)
    assert m.error_l1 < 1000 * base.error_l1


# ----------------------------------------------------------------------
# the per-message path is the oracle of the co-simulated one
# ----------------------------------------------------------------------
async def _decline(self, *_args):
    """``CommHandle.ring_segment`` of a group that always steps rank by
    rank: the degenerate case, taken by everyone."""
    return None


def _outcome(cfg_fields, kills, path="co-simulated"):
    """Everything a run reports, in the golden file's exact forms, with
    healthy groups ``"co-simulated"``, every group ``"per-message"``, or
    ``"traced"`` (per-message, recorded by a tracer)."""
    cfg = AppConfig(**cfg_fields, disk=Disk())
    uni, total = make_universe(cfg, OPL)
    if path == "traced":
        uni.tracer = Tracer()
    job = uni.launch(total, app_main, argv=(cfg,))
    FailureGenerator().inject(uni, job, kills)
    try:
        with mock.patch.object(CommHandle, "ring_segment",
                               _decline if path == "per-message"
                               else CommHandle.ring_segment):
            uni.run()
    except SimError as exc:
        # a run the application does not survive: what failed and how is
        # the comparable part.  The wait-for graph of a deadlock names
        # whatever each path parks on, which of several tasks failing at
        # one instant is reported is event order, and a segment nobody
        # completes has charged no messages yet.
        return rename_jobs([type(exc).__name__, re.sub(
            r"^task \S+ failed", "task failed", str(exc).split("\n")[0])],
            uni)
    found = [r for j in uni.jobs for r in j.results() if r is not None]
    doc = {"metrics": canonical(job.results()[0] or found[-1]),
           "phases": norm(uni.spans.phase_totals()),
           "messages": [uni.stats.messages, uni.stats.bytes_sent],
           "collectives": dict(uni.stats.collectives.items()),
           "doomed": len(uni.doomed)}
    return rename_jobs(doc, uni)


_QUIET_SOLVE_TIMES = {}


@settings(max_examples=40, deadline=None)
@given(code=st.sampled_from(["CR", "RC", "AC"]),
       mode=st.sampled_from(["respawn", "shrink", "nc"]),
       shape=st.sampled_from([(6, 1), (6, 2), (6, 3), (6, 8), (6, 16),
                              (8, 64)]), data=st.data())
def test_untraced_run_is_the_traced_run(code, mode, shape, data):
    """Any technique, mode, group size and checkpoint interval (down to one
    step); up to two kills of any rank (rank 0 and two victims of one group
    included) at any instant from before the first step to after the last:
    identical ``RunMetrics``, phase totals, message and byte counts — or
    the identical failure."""
    n, diag_procs = shape
    steps = 16 if n == 6 else 8
    fields = dict(n=n, level=4, technique_code=code, steps=steps,
                  diag_procs=diag_procs, recovery_mode=mode,
                  checkpoint_count=data.draw(st.integers(1, steps - 1)))
    key = (code, mode, shape, fields["checkpoint_count"])
    if key not in _QUIET_SOLVE_TIMES:
        quiet = _outcome(fields, ())
        assert quiet == _outcome(fields, (), "per-message") \
            == _outcome(fields, (), "traced")
        _QUIET_SOLVE_TIMES[key] = json.loads(quiet["metrics"])["t_solve"]
    t_solve = _QUIET_SOLVE_TIMES[key]
    world = AppConfig(**fields).layout().total_procs
    kills = [Kill(rank, data.draw(st.floats(0.0, 1.2 * t_solve)))
             for rank in data.draw(st.lists(st.integers(0, world - 1),
                                            max_size=2, unique=True))]
    assert _outcome(fields, kills) == _outcome(fields, kills, "per-message") \
        == _outcome(fields, kills, "traced")


@pytest.mark.parametrize("rank", [0, 5, 17])
@pytest.mark.parametrize("when", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("checkpoint_count", [4, 7])
def test_cr_shrink_recompute_starts_unsynchronised(checkpoint_count, when,
                                                   rank):
    """After a shrink the survivors of a 16-rank group restore one or two
    checkpoint pieces each — disk reads of seconds — and recompute one or
    two microsecond steps with no sync in between: ranks far from every
    slow reader finish the recompute before the last one starts it.  The
    co-simulated segment releases them as the per-message loop does."""
    fields = dict(n=6, level=4, technique_code="CR", steps=8, diag_procs=16,
                  checkpoint_count=checkpoint_count, recovery_mode="shrink")
    t_solve = json.loads(_outcome(fields, ())["metrics"])["t_solve"]
    kills = [Kill(rank, when * t_solve)]
    got = _outcome(fields, kills)
    assert isinstance(got, dict) and got["doomed"] == 0
    assert got == _outcome(fields, kills, "per-message")


def test_exchange_is_the_literal_sequence_when_a_kill_lands_mid_flight():
    """Rank 0 dies while its last halo row to rank 7 is in flight.  Rank 7
    still receives it and fails one step later, traced or not: its second
    receive is posted when it resumes from the first, after the row that
    arrives at that same instant has been delivered.  (A fused exchange
    that posted it from inside the first receive's delivery found the
    source dead instead and sent one halo message fewer.)"""
    fields = dict(n=6, level=4, technique_code="RC", steps=16, diag_procs=8,
                  checkpoint_count=4, recovery_mode="respawn")
    kills = [Kill(0, 4.848769920873535e-05)]
    assert _outcome(fields, kills) == _outcome(fields, kills, "per-message") \
        == _outcome(fields, kills, "traced")
