"""Experiment harnesses: small runs + the paper's shape claims."""

import pytest

from repro.experiments.fig8 import Fig8Point, format_fig8, run_fig8
from repro.experiments.fig9 import (Fig9Point, format_fig9, recovery_overhead,
                                    run_fig9)
from repro.experiments.fig10 import Fig10Point, format_fig10, run_fig10
from repro.experiments.fig11 import Fig11Point, format_fig11, run_fig11
from repro.experiments.report import (check_monotone_increasing, format_table,
                                      geometric_mean)
from repro.experiments.table1 import (PAPER_TABLE1, Table1Row, format_table1,
                                      run_table1)
from repro.machine.presets import OPL


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------
def test_format_table_aligns():
    text = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(len(l) == len(lines[0]) for l in lines[1:])


def test_check_monotone():
    assert check_monotone_increasing([1, 2, 3])
    assert not check_monotone_increasing([3, 1])
    assert check_monotone_increasing([3.0, 2.9], slack=0.05)


def test_check_monotone_negative_values():
    """Slack is relative to |a|: the old ``a * (1 - slack)`` form demanded
    *more* of successors of negative values, rejecting monotone series."""
    assert check_monotone_increasing([-3.0, -2.0, -1.0], slack=0.05)
    assert check_monotone_increasing([-10.0, -10.5], slack=0.1)
    assert not check_monotone_increasing([-10.0, -12.0], slack=0.1)
    assert not check_monotone_increasing([-1.0, -3.0], slack=0.05)


def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([]) == 0.0
    with pytest.warns(RuntimeWarning, match="dropped 1 non-positive"):
        assert geometric_mean([0.0, 2.0]) == pytest.approx(2.0)


def test_geometric_mean_strict_raises():
    with pytest.raises(ValueError, match="non-positive"):
        geometric_mean([0.0, 2.0], strict=True)
    # all-positive input stays silent in both modes
    assert geometric_mean([2.0, 8.0], strict=True) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------
def test_table1_reproduces_paper_exactly():
    rows = run_table1(diag_procs=(16,), steps=8)
    row = rows[0]
    assert row.cores == 76
    spawn, shrink, agree, merge = PAPER_TABLE1[76]
    assert row.spawn == pytest.approx(spawn, rel=0.02)
    assert row.shrink == pytest.approx(shrink, rel=0.02)
    assert row.agree == pytest.approx(agree, rel=0.05)
    assert row.merge == pytest.approx(merge, rel=0.05)
    text = format_table1(rows)
    assert "76" in text and "60.75" in text


# ---------------------------------------------------------------------------
# Fig. 8
# ---------------------------------------------------------------------------
def test_fig8_two_failures_dominate_and_grow():
    pts = run_fig8(diag_procs=(8, 16), failure_counts=(1, 2), steps=8)
    by = {(p.cores, p.n_failures): p for p in pts}
    # growth with cores
    assert by[(76, 2)].t_reconstruct > by[(38, 2)].t_reconstruct
    assert by[(76, 1)].t_reconstruct > 0
    # 2-failure blow-up (the paper's "unsatisfactory" result)
    assert by[(76, 2)].t_reconstruct > 10 * by[(76, 1)].t_reconstruct
    assert by[(76, 2)].t_failed_list > 10 * by[(76, 1)].t_failed_list
    assert "reconstruct" in format_fig8(pts)


# ---------------------------------------------------------------------------
# Fig. 9
# ---------------------------------------------------------------------------
def test_fig9_opl_ordering_and_loss_independence():
    pts = run_fig9(n=8, steps=8, diag_procs=4, lost_counts=(1, 3),
                   seeds=(0, 1), machines=(OPL,))
    by = {(p.technique, p.n_lost): p for p in pts}
    # Fig. 9a ordering: CR >> RC > AC
    assert by[("CR", 1)].recovery_overhead > 10 * by[("RC", 1)].recovery_overhead
    assert by[("RC", 1)].recovery_overhead > by[("AC", 1)].recovery_overhead
    # recovery overhead nearly independent of the number of lost grids
    cr1, cr3 = by[("CR", 1)], by[("CR", 3)]
    assert cr3.recovery_overhead < 2 * cr1.recovery_overhead
    assert "recovery" in format_fig9(pts)


def test_fig9_process_time_normalisation_charges_extra_procs():
    pts = run_fig9(n=6, steps=16, diag_procs=4, lost_counts=(1,),
                   seeds=(0,), machines=(OPL,))
    rc = next(p for p in pts if p.technique == "RC")
    # RC runs P_r > P_c processes, so its normalised overhead exceeds raw
    assert rc.process_time_overhead > rc.recovery_overhead


# ---------------------------------------------------------------------------
# Fig. 10
# ---------------------------------------------------------------------------
def test_fig10_shapes():
    pts = run_fig10(n=6, steps=16, lost_counts=(0, 1, 3), seeds=(0, 1, 2))
    by = {(p.technique, p.n_lost): p for p in pts}
    # CR exact: flat
    assert by[("CR", 3)].error_l1 == pytest.approx(
        by[("CR", 0)].error_l1, rel=1e-9)
    # RC/AC degrade with losses
    assert by[("RC", 3)].error_l1 > by[("RC", 0)].error_l1
    assert by[("AC", 3)].error_l1 > by[("AC", 0)].error_l1
    # all errors finite and within a sane band
    assert all(p.error_l1 < 1.0 for p in pts)
    assert "l1 error" in format_fig10(pts)


def test_fig10_baseline_ratio_one():
    pts = run_fig10(n=6, steps=16, lost_counts=(0,), seeds=(0,))
    assert all(p.ratio == pytest.approx(1.0) for p in pts)


# ---------------------------------------------------------------------------
# Fig. 11
# ---------------------------------------------------------------------------
def test_fig11_orderings():
    pts = run_fig11(n=6, steps=16, diag_procs=(2, 4), failure_counts=(0, 2),
                    seeds=(0,))
    by = {(p.technique, p.n_failures, p.cores): p for p in pts}
    # CR most costly at zero failures (checkpoint writes)
    cr0 = by[("CR", 0, 11)].t_total
    ac0 = by[("AC", 0, 14)].t_total
    assert cr0 > ac0
    # two failures cost more than none for AC/RC (for CR at this small
    # scale the skipped checkpoint write can offset the repair cost, so
    # only the reconstruction time itself is asserted)
    assert by[("AC", 2, 25)].t_total > by[("AC", 0, 25)].t_total
    assert by[("RC", 2, 38)].t_total > by[("RC", 0, 38)].t_total
    assert by[("CR", 2, 22)].t_total > 0
    # efficiency column normalised to 1 at the series start
    firsts = [p for p in pts if p.cores in (11, 19, 14)]
    assert all(p.efficiency == pytest.approx(1.0) for p in firsts)
    assert "efficiency" in format_fig11(pts)


# ---------------------------------------------------------------------------
# recovery-mode comparison
# ---------------------------------------------------------------------------
def test_modes_kill_plan_is_deterministic_and_portable():
    from repro.core import AppConfig
    from repro.experiments.modes import mode_kill_plan

    cfg = AppConfig(n=6, level=4, technique_code="CR", steps=16,
                    diag_procs=2, checkpoint_count=4)
    plan = mode_kill_plan(cfg, 2, at=1.0)
    assert plan == mode_kill_plan(cfg, 2, at=1.0)
    ranks = [k.rank for k in plan]
    assert len(set(ranks)) == 2
    assert 0 not in ranks                      # rank 0 survives in every mode
    assert all(k.at == 1.0 for k in plan)      # simultaneous
    layout = cfg.layout()
    gids = [g for g in range(7) for r in ranks
            if r in layout.group_ranks(g)]
    assert len(set(gids)) == 2                 # distinct grids
    # each hit grid keeps a survivor (nc-mode requirement)
    assert all(len(layout.group_ranks(g)) >= 2 for g in gids)


def test_modes_kill_plan_rejects_oversized_requests():
    from repro.core import AppConfig
    from repro.experiments.modes import mode_kill_plan

    cfg = AppConfig(n=6, level=4, technique_code="CR", steps=16,
                    diag_procs=2, checkpoint_count=4)
    with pytest.raises(ValueError, match="eligible"):
        mode_kill_plan(cfg, 5, at=1.0)  # only four multi-member grids


def test_modes_kill_plan_avoids_rc_replica_pairs():
    from repro.core import AppConfig
    from repro.experiments.modes import mode_kill_plan

    cfg = AppConfig(n=6, level=4, technique_code="RC", steps=16,
                    diag_procs=2, checkpoint_count=4)
    layout = cfg.layout()
    conflicts = set(map(tuple, cfg.scheme().rc_conflict_pairs()))
    plan = mode_kill_plan(cfg, 2, at=1.0)
    gids = sorted(g for k in plan
                  for g in range(len(cfg.scheme().grids))
                  if k.rank in layout.group_ranks(g))
    assert tuple(gids) not in conflicts


def test_modes_experiment_shapes():
    from repro.experiments.modes import format_modes, run_modes

    pts = run_modes(failure_counts=(1,))
    by = {(p.mode, p.technique, p.n_failures): p for p in pts}
    # a baseline row and a killed row per (mode, technique)
    assert len(pts) == 18
    for mode in ("respawn", "shrink", "nc"):
        for code in ("CR", "RC", "AC"):
            assert by[(mode, code, 0)].overhead == pytest.approx(1.0)
    # shrink skips spawn+merge entirely: cheapest repair
    assert by[("shrink", "CR", 1)].t_reconstruct < \
        by[("respawn", "CR", 1)].t_reconstruct
    # non-collective repair stays off the critical path
    assert by[("nc", "CR", 1)].overhead == pytest.approx(1.0, rel=1e-3)
    # CR is exact in every mode
    for mode in ("respawn", "shrink", "nc"):
        assert by[(mode, "CR", 1)].error_l1 == pytest.approx(
            by[(mode, "CR", 0)].error_l1, rel=1e-9)
    text = format_modes(pts)
    assert "mode" in text and "shrink" in text and "nc" in text


# ---------------------------------------------------------------------------
# the registered quick experiments, byte for byte
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def shared_runner():
    from repro.sweep import SweepRunner
    return SweepRunner(workers=1)


@pytest.mark.parametrize("name", ["table1", "fig8", "fig9", "fig10", "fig11",
                                  "modes"])
def test_quick_experiment_matches_golden(name, shared_runner):
    """``run_experiment(name, quick=True)`` reproduces the recorded document
    and text table exactly (``golden/record.py`` says how they were made).

    Re-recording is legitimate only in a commit that also bumps
    ``RESULTS_EPOCH`` (computed values moved) or
    ``EXPERIMENT_SCHEMA_VERSION`` (the document's shape moved); a refactor
    of the experiment, sweep or service layers must leave every byte alone.
    """
    from .golden.record import GOLDEN_DIR, render

    for fname, text in render(name, shared_runner).items():
        assert text == (GOLDEN_DIR / fname).read_text(), fname
