"""Run orchestration helpers."""

import pytest

from repro.core import (AppConfig, baseline_solve_time, choose_lost_grids,
                        make_universe, plan_failures)
from repro.machine.presets import IDEAL, OPL


def test_make_universe_sizes_hostfile():
    cfg = AppConfig(n=6, level=4, technique_code="RC", diag_procs=2)
    uni, total = make_universe(cfg, OPL, n_spares=2)
    assert total == cfg.layout().total_procs
    regular = len(uni.hostfile.regular_hosts)
    assert regular * OPL.cores_per_node >= total
    assert len(uni.hostfile.spare_hosts) == 2


def test_plan_failures_protects_rank0_and_pairs():
    cfg = AppConfig(n=6, level=4, technique_code="RC", diag_procs=2)
    layout = cfg.layout()
    pairs = layout.conflict_pairs_ranks()
    for seed in range(30):
        kills = plan_failures(cfg, 3, at=1.0, seed=seed)
        ranks = [k.rank for k in kills]
        assert 0 not in ranks
        grids = {layout.gid_of(r) for r in ranks}
        for a, b in pairs:
            assert not (a in grids and b in grids)
        assert all(k.at == 1.0 for k in kills)


def test_plan_failures_cr_unconstrained_pairs():
    cfg = AppConfig(n=6, level=4, technique_code="CR", diag_procs=2)
    kills = plan_failures(cfg, 2, at=0.5, seed=0)
    assert len(kills) == 2


def test_choose_lost_grids_respects_rc_conflicts():
    cfg = AppConfig(n=6, level=4, technique_code="RC", diag_procs=2)
    conflicts = cfg.scheme().rc_conflict_pairs()
    for seed in range(30):
        lost = choose_lost_grids(cfg, 3, seed=seed)
        assert len(lost) == 3
        for a, b in conflicts:
            assert not (a in lost and b in lost)


def test_choose_lost_grids_deterministic():
    cfg = AppConfig(n=6, level=4, technique_code="AC", diag_procs=2)
    assert choose_lost_grids(cfg, 2, seed=5) == \
        choose_lost_grids(cfg, 2, seed=5)


def test_baseline_solve_time_positive_on_real_machine():
    cfg = AppConfig(n=6, level=4, technique_code="AC", diag_procs=2, steps=8)
    assert baseline_solve_time(cfg, OPL) > 0
    assert baseline_solve_time(cfg, IDEAL) == 0.0


def test_choose_lost_grids_for_scheme_matches_config_wrapper():
    from repro.core import choose_lost_grids_for_scheme
    for code in ("CR", "RC", "AC"):
        cfg = AppConfig(n=7, level=4, technique_code=code, diag_procs=2)
        scheme = cfg.scheme()
        for n_lost in (1, 3, 5):
            for seed in range(5):
                assert choose_lost_grids(cfg, n_lost, seed=seed) == \
                    choose_lost_grids_for_scheme(scheme, code, n_lost,
                                                 seed=seed)


def test_cached_scheme_shares_instances():
    from repro.sparsegrid import cached_scheme
    a = AppConfig(n=7, level=4, technique_code="RC")
    b = AppConfig(n=7, level=4, technique_code="RC", steps=99)
    assert a.scheme() is b.scheme()
    assert a.scheme() is cached_scheme(7, 4, duplicates=True)
    # ... and the identity-keyed layout cache collapses with them
    assert a.layout() is AppConfig(n=7, level=4,
                                   technique_code="RC").layout()


# ----------------------------------------------------------------------
# teardown: a finished run is freed by refcounting, not by the collector
# ----------------------------------------------------------------------
@pytest.fixture
def collector_off():
    import gc
    gc.collect()
    gc.disable()
    try:
        yield gc
    finally:
        gc.enable()


def test_a_finished_run_frees_its_universe_without_the_collector(
        monkeypatch, collector_off):
    import weakref

    from repro.core import run_app, runner

    made = []

    def recording(*args, **kwargs):
        universe, total = make_universe(*args, **kwargs)
        made.append(weakref.ref(universe))
        return universe, total

    monkeypatch.setattr(runner, "make_universe", recording)
    metrics = run_app(AppConfig(technique_code="CR", n=5, level=3, steps=4,
                                diag_procs=4))
    assert metrics.world_size > 0
    assert len(made) == 1 and made[0]() is None
    assert collector_off.collect() == 0


@pytest.mark.parametrize("tech, mode, bound", [
    # a tenth of what the collector found after the same run before the
    # teardown (1 622, 1 468 and 2 361 objects)
    ("CR", "respawn", 162), ("AC", "shrink", 146), ("RC", "respawn", 236)])
def test_a_run_with_kills_leaves_little_cyclic_garbage(tech, mode, bound,
                                                      collector_off):
    from repro.core import run_app

    cfg = AppConfig(technique_code=tech, n=5, level=4 if tech != "CR" else 3,
                    steps=4, diag_procs=4, recovery_mode=mode)
    kills = plan_failures(cfg, 2, at=0.5 * baseline_solve_time(cfg), seed=1)
    collector_off.collect()
    metrics = run_app(cfg, kills=kills)
    assert metrics.world_size > 0
    assert collector_off.collect() <= bound


@pytest.mark.parametrize("tech, mode", [
    ("CR", "respawn"), ("AC", "shrink"), ("RC", "respawn")])
def test_a_run_with_kills_leaves_no_collective_round_in_a_cycle(
        tech, mode, collector_off):
    """A settled round whose reader died before it read is recycled: the
    dead member counts as read.  Unrecycled, the round and the future that
    resolves to it stay a cycle holding the communicator's members."""
    from repro.core import run_app
    from repro.mpi.collectives import Round

    cfg = AppConfig(technique_code=tech, n=5, level=4 if tech != "CR" else 3,
                    steps=4, diag_procs=4, recovery_mode=mode)
    kills = plan_failures(cfg, 2, at=0.5 * baseline_solve_time(cfg), seed=1)
    collector_off.collect()
    collector_off.set_debug(collector_off.DEBUG_SAVEALL)
    try:
        assert run_app(cfg, kills=kills).world_size > 0
        collector_off.collect()
        rounds = [o for o in collector_off.garbage if isinstance(o, Round)]
    finally:
        collector_off.set_debug(0)
        collector_off.garbage.clear()
    assert rounds == []
