"""Shrink-in-place and non-collective repair: end-to-end behaviour of the
two non-respawning recovery modes, plus the strategy-object contracts."""

import numpy as np
import pytest

from repro.core import AppConfig, run_app
from repro.core.runner import baseline_solve_time, plan_failures
from repro.ft import PLACE_SPARE, STRATEGIES, strategy_by_mode
from repro.ft.failure_injection import Kill
from repro.machine.presets import IDEAL, OPL


def cfg_for(code, **kw):
    defaults = dict(n=6, level=4, technique_code=code, steps=16,
                    diag_procs=2, checkpoint_count=4)
    defaults.update(kw)
    return AppConfig(**defaults)


# With the defaults above the layout groups are
#   grid 0: ranks (0, 1)   grid 1: (2, 3)   grid 2: (4, 5)   grid 3: (6, 7)
#   grid 4: (8,)           grid 5: (9,)     grid 6: (10,)
# so rank 7 loses grid 3, ranks 5+7 lose grids 2+3, and killing both of
# (6, 7) wipes grid 3 entirely.


# ---------------------------------------------------------------------------
# strategy-object contracts
# ---------------------------------------------------------------------------
def test_registry_and_lookup():
    assert set(STRATEGIES) == {"respawn", "shrink", "nc"}
    for mode, s in STRATEGIES.items():
        assert strategy_by_mode(mode) is s
    with pytest.raises(ValueError):
        strategy_by_mode("reboot")


# ---------------------------------------------------------------------------
# shrink-in-place
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("code", ["CR", "RC", "AC"])
def test_shrink_single_failure_recovers(code):
    cfg = cfg_for(code, recovery_mode="shrink")
    base = run_app(cfg_for(code), OPL)
    m = run_app(cfg, OPL, kills=[Kill(7, base.t_solve * 0.6)])
    assert m.recovery_mode == "shrink"
    assert m.failed_ranks == [7]
    assert m.lost_gids == [3]
    assert m.t_spawn == 0.0 and m.t_merge == 0.0  # nobody respawned
    assert np.isfinite(m.error_l1)


def test_shrink_cr_error_equals_baseline():
    """Checkpoint restart stays exact across the re-balanced survivor
    decomposition."""
    base = run_app(cfg_for("CR"), OPL)
    m = run_app(cfg_for("CR", recovery_mode="shrink"), OPL,
                kills=[Kill(7, base.t_solve * 0.6)])
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_shrink_survivor_grids_bit_identical():
    """Redistributing a survivor grid over fewer ranks must not perturb a
    single bit of its field — the combined solution matches exactly."""
    base = run_app(cfg_for("CR", collect_arrays=True), OPL)
    m = run_app(cfg_for("CR", collect_arrays=True, recovery_mode="shrink"),
                OPL, kills=[Kill(7, base.t_solve * 0.6)])
    assert np.array_equal(base.combined, m.combined)


def test_shrink_rank_zero_failure():
    base = run_app(cfg_for("CR"), OPL)
    m = run_app(cfg_for("CR", recovery_mode="shrink"), OPL,
                kills=[Kill(0, base.t_solve * 0.6)])
    assert m.failed_ranks == [0]
    assert m.lost_gids == [0]
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_shrink_simultaneous_multi_grid_loss():
    base = run_app(cfg_for("CR"), OPL)
    at = base.t_solve * 0.6
    m = run_app(cfg_for("CR", recovery_mode="shrink"), OPL,
                kills=[Kill(5, at), Kill(7, at)])
    assert sorted(m.failed_ranks) == [5, 7]
    assert sorted(m.lost_gids) == [2, 3]
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_shrink_needs_no_spares_or_placement():
    """Shrink never places replacements: a spare-requiring placement
    policy with zero spares — fatal in respawn mode — is irrelevant."""
    cfg = cfg_for("CR", recovery_mode="shrink", placement=PLACE_SPARE)
    base = run_app(cfg_for("CR"), OPL)
    m = run_app(cfg, OPL, kills=[Kill(7, base.t_solve * 0.6)], n_spares=0)
    assert m.failed_ranks == [7]
    assert np.isfinite(m.error_l1)


# ---------------------------------------------------------------------------
# non-collective repair
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("code", ["CR", "RC", "AC"])
def test_nc_single_failure_recovers(code):
    base = run_app(cfg_for(code), OPL)
    m = run_app(cfg_for(code, recovery_mode="nc"), OPL,
                kills=[Kill(7, base.t_solve * 0.6)])
    assert m.recovery_mode == "nc"
    assert m.failed_ranks == [7]
    assert m.lost_gids == [3]
    assert m.world_size == base.world_size  # replacement readmitted
    assert np.isfinite(m.error_l1)


def test_nc_cr_error_equals_baseline():
    base = run_app(cfg_for("CR"), OPL)
    m = run_app(cfg_for("CR", recovery_mode="nc"), OPL,
                kills=[Kill(7, base.t_solve * 0.6)])
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_nc_repair_off_critical_path():
    """Only the failed sub-grid's communicator is rebuilt; the unaffected
    grids never stop, so the repair — which did happen, and was paid for —
    leaves the critical-path total where the baseline put it."""
    base = run_app(cfg_for("CR"), OPL)
    at = base.t_solve * 0.5
    nc = run_app(cfg_for("CR", recovery_mode="nc"), OPL, kills=[Kill(7, at)])
    assert nc.t_reconstruct > 0.0
    assert nc.t_total == pytest.approx(base.t_total, rel=1e-3)


def test_nc_rank_zero_failure():
    base = run_app(cfg_for("CR"), OPL)
    m = run_app(cfg_for("CR", recovery_mode="nc"), OPL,
                kills=[Kill(0, base.t_solve * 0.6)])
    assert m.failed_ranks == [0]
    assert m.lost_gids == [0]
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_nc_simultaneous_multi_grid_loss():
    """Two grids repair concurrently, each inside its own communicator."""
    base = run_app(cfg_for("CR"), OPL)
    at = base.t_solve * 0.6
    m = run_app(cfg_for("CR", recovery_mode="nc"), OPL,
                kills=[Kill(5, at), Kill(7, at)])
    assert sorted(m.failed_ranks) == [5, 7]
    assert sorted(m.lost_gids) == [2, 3]
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_nc_full_grid_loss_is_fatal():
    """Non-collective repair is rebuilt *by the survivors of the grid*;
    a grid that lost every member has none, and the failure must say so
    rather than deadlock."""
    base = run_app(cfg_for("CR"), OPL)
    at = base.t_solve * 0.6
    with pytest.raises(Exception, match="lost every member"):
        run_app(cfg_for("CR", recovery_mode="nc"), OPL,
                kills=[Kill(6, at), Kill(7, at)])


@pytest.mark.parametrize("code", ["CR", "AC"])
@pytest.mark.parametrize("seed", range(4))
def test_nc_single_kill_on_a_22_rank_world(code, seed):
    """One seeded kill mid-solve on the ``diag_procs=4`` layout (victims
    13, 5, 2, 8).  The victim's grid mates revoke their grid communicator
    and enter the loop-head agree; the revoke must not doom an agree
    already open (ULFM exempts agree/shrink), or a survivor dies of
    ``RevokedError``."""
    cfg = cfg_for(code, recovery_mode="nc", diag_procs=4)
    kills = plan_failures(cfg, 1, at=0.5 * baseline_solve_time(cfg, OPL),
                          seed=seed)
    m = run_app(cfg, OPL, kills=kills)
    assert m.failed_ranks == [kills[0].rank]
    assert np.isfinite(m.error_l1)


# ---------------------------------------------------------------------------
# mode bookkeeping
# ---------------------------------------------------------------------------
def test_default_mode_is_respawn():
    m = run_app(cfg_for("CR"), IDEAL)
    assert m.recovery_mode == "respawn"
    assert "recovery_mode" in m.to_dict()


# ---------------------------------------------------------------------------
# shrink-in-place: full-grid loss migrates onto a donor (orphan adoption)
# ---------------------------------------------------------------------------
def small_cfg(code, **kw):
    """n=5/level=3 layout: grids 3 and 4 are single-member (ranks 6, 7),
    so killing rank 7 loses grid 4 entirely."""
    defaults = dict(n=5, level=3, technique_code=code, steps=4,
                    diag_procs=2, checkpoint_count=2)
    defaults.update(kw)
    return AppConfig(**defaults)


def test_shrink_full_grid_loss_adopts_and_stays_exact():
    """A grid that lost every member migrates onto a donor rank, which
    restores it from checkpoint: CR stays exact."""
    base = run_app(small_cfg("CR"), OPL)
    m = run_app(small_cfg("CR", recovery_mode="shrink"), OPL,
                kills=[Kill(7, base.t_solve * 0.6)])
    assert m.failed_ranks == [7]
    assert 4 in m.lost_gids           # the orphan
    assert len(m.lost_gids) == 2      # ...plus the donor's contracted grid
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_shrink_full_grid_loss_rc_recovers_via_plan():
    """Under RC the adopted orphan refills through the replica/resample
    plan like any lost grid."""
    base = run_app(small_cfg("RC"), OPL)
    m = run_app(small_cfg("RC", recovery_mode="shrink"), OPL,
                kills=[Kill(7, base.t_solve * 0.6)])
    assert m.failed_ranks == [7]
    assert 4 in m.lost_gids
    assert np.isfinite(m.error_l1) and m.error_l1 < 1e-1


def test_shrink_full_grid_loss_ac_drops_grid():
    """AC excludes lost grids from the combination, so no donor is taken
    (a healthy grid's data would be destroyed for nothing)."""
    cfg = cfg_for("AC", recovery_mode="shrink")
    base = run_app(cfg_for("AC"), OPL)
    at = base.t_solve * 0.6
    m = run_app(cfg, OPL, kills=[Kill(9, at)])  # grid 5: sole member
    assert m.lost_gids == [5]                   # no donor grid joins it
    assert np.isfinite(m.error_l1)


def test_survivor_view_adoption_is_deterministic():
    cfg = small_cfg("CR")
    base = cfg.layout()
    members = [r for r in range(base.total_procs) if r != 7]
    v = base.survivors(members, adopt_orphans=True)
    assert v.adoptions == dict(base.survivors(members,
                                              adopt_orphans=True).adoptions)
    orphan_ranks = v.group_ranks(4)
    assert len(orphan_ranks) == 1     # the donor
    donor_gid = v.adoptions[4]
    # donor came from a multi-member group, which shrank by one
    assert len(v.group_ranks(donor_gid)) == \
        len(base.group_ranks(donor_gid)) - 1
    # every rank still belongs to exactly one grid
    seen = [g for a in v.assignments for g in a.ranks]
    assert sorted(seen) == list(range(len(members)))


def test_second_orphan_spares_the_first_orphans_rc_source():
    """Found by ``test_random_kills_during_solve[4-RC-shrink]``: ranks 8 and
    10 orphan grids 4 and 6; grid 4 refills by resampling grid 1, so grid 1
    must not donate to grid 6 — once adopted, grid 4 is back to full size
    but is still waiting for that data."""
    cfg = cfg_for("RC")
    base = cfg.layout()
    members = [r for r in range(base.total_procs) if r not in (8, 10)]
    v = base.survivors(members, adopt_orphans=True)
    assert set(v.adoptions) == {4, 6}
    lost = set(v.adoptions) | set(v.adoptions.values())
    cfg.technique().validate_losses(cfg.scheme(), lost)   # must not raise


def test_survivor_view_no_donor_raises():
    cfg = small_cfg("CR", diag_procs=1)   # every grid single-member
    base = cfg.layout()
    members = [r for r in range(base.total_procs) if r != 2]
    with pytest.raises(RuntimeError, match="cannot re-balance"):
        base.survivors(members, adopt_orphans=True)
