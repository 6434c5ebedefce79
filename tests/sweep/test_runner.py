"""SweepRunner: fan-out, deduplication, serial/pool equivalence."""

import pytest

from repro.core import AppConfig, run_app
from repro.ft.checkpoint import Disk
from repro.machine.presets import IDEAL, OPL
from repro.sweep import (RunCache, SweepPoint, SweepRunner, planned,
                         resolve_workers)


def cfg(**kw):
    kw.setdefault("n", 6)
    kw.setdefault("level", 4)
    kw.setdefault("technique_code", "AC")
    kw.setdefault("steps", 2)
    kw.setdefault("diag_procs", 1)
    return AppConfig(**kw)


# ----------------------------------------------------------------------
# worker resolution
# ----------------------------------------------------------------------

def test_resolve_workers_explicit_wins(monkeypatch):
    monkeypatch.setattr("repro.sweep.runner.os.cpu_count", lambda: 8)
    monkeypatch.setenv("REPRO_WORKERS", "7")
    assert resolve_workers(3) == 3
    assert resolve_workers() == 7


def test_resolve_workers_defaults_serial(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(0) == 1  # clamped


def test_resolve_workers_serial_on_one_cpu(monkeypatch):
    monkeypatch.setattr("repro.sweep.runner.os.cpu_count", lambda: 1)
    monkeypatch.setenv("REPRO_WORKERS", "7")
    assert resolve_workers() == 1       # pool would only add overhead
    assert resolve_workers(7) == 7      # explicit --workers still wins
    monkeypatch.setattr("repro.sweep.runner.os.cpu_count", lambda: None)
    assert resolve_workers() == 1       # unknown CPU count: play safe


def test_resolve_workers_rejects_junk_env(monkeypatch):
    monkeypatch.setattr("repro.sweep.runner.os.cpu_count", lambda: 8)
    monkeypatch.setenv("REPRO_WORKERS", "lots")
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        resolve_workers()


# ----------------------------------------------------------------------
# points and keys
# ----------------------------------------------------------------------

def test_point_key_none_when_disk_supplied():
    assert SweepPoint(cfg(), OPL).key() is not None
    assert SweepPoint(cfg(disk=Disk()), OPL).key() is None


def test_equal_points_share_a_key():
    assert SweepPoint(cfg(), OPL).key() == SweepPoint(cfg(), OPL).key()
    assert SweepPoint(cfg(), OPL).key() != SweepPoint(cfg(), IDEAL).key()


# ----------------------------------------------------------------------
# execution semantics
# ----------------------------------------------------------------------

def test_duplicates_execute_once():
    runner = SweepRunner(workers=1)
    p = SweepPoint(cfg(), IDEAL)
    results = runner.run([p, p, p])
    s = runner.cache.stats()
    assert s["misses"] == 1 and s["hits"] == 2
    d = [m.to_dict() for m in results]
    assert d[0] == d[1] == d[2]
    # duplicates are owned copies, not aliases
    assert results[0] is not results[1]


def test_cross_batch_memoisation():
    runner = SweepRunner(workers=1)
    p = SweepPoint(cfg(), IDEAL)
    first = runner.run_one(p)
    again = runner.run_one(p)
    assert runner.cache.stats() == {"entries": 1, "memory_entries": 1,
                                    "disk_entries": 0, "hits": 1,
                                    "misses": 1, "hit_rate": 0.5}
    assert first.to_dict() == again.to_dict()


def test_results_keep_declaration_order():
    runner = SweepRunner(workers=1)
    pts = [SweepPoint(cfg(steps=s), IDEAL) for s in (2, 4, 2, 6)]
    out = runner.run(pts)
    assert [m.steps for m in out] == [2, 4, 2, 6]


def test_uncacheable_points_run_inline_with_visible_disk():
    disk = Disk()
    runner = SweepRunner(workers=1)
    p = SweepPoint(cfg(technique_code="CR", checkpoint_count=2, disk=disk),
                   IDEAL)
    runner.run([p, p])
    # never cached: both executions really ran
    assert runner.cache.stats()["hits"] == 0
    assert runner.cache.stats()["misses"] == 0
    # ... and the caller's disk saw the checkpoint writes
    assert disk._store


def test_cacheable_point_config_stays_pristine():
    p = SweepPoint(cfg(technique_code="CR", checkpoint_count=2), IDEAL)
    SweepRunner(workers=1).run_one(p)
    assert p.cfg.disk is None  # run_app's scratch disk stayed on a copy


def test_pool_matches_serial():
    pts = [SweepPoint(cfg(steps=s, technique_code=t), IDEAL)
           for s in (2, 3) for t in ("CR", "AC")]
    serial = SweepRunner(workers=1).run(pts)
    pooled = SweepRunner(workers=2).run(pts)
    assert [m.to_dict() for m in serial] == [m.to_dict() for m in pooled]


def test_shared_cache_across_runners():
    cache = RunCache()
    p = SweepPoint(cfg(), IDEAL)
    SweepRunner(workers=1, cache=cache).run_one(p)
    SweepRunner(workers=1, cache=cache).run_one(p)
    assert cache.stats()["misses"] == 1
    assert cache.stats()["hits"] == 1


# ----------------------------------------------------------------------
# plans and the driver
# ----------------------------------------------------------------------

def test_drive_sends_each_batch_its_metrics_in_order():
    pts = [SweepPoint(cfg(steps=s), IDEAL) for s in (2, 4, 6)]

    def plan():
        first = yield pts[:2]
        second = yield pts[2:] + pts[:1]
        return [m.steps for m in first], [m.steps for m in second]

    runner = SweepRunner(workers=1)
    assert runner.drive(plan()) == ([2, 4], [6, 2])
    # the repeated point of the second batch came from the runner's cache
    assert runner.cache.stats()["misses"] == 3
    assert runner.cache.stats()["hits"] == 1


def test_drive_returns_the_value_of_a_plan_without_batches():
    def plan():
        return "nothing to run"
        yield  # pragma: no cover - makes this a generator

    runner = SweepRunner(workers=1)
    assert runner.drive(plan()) == "nothing to run"
    assert runner.cache.stats()["misses"] == 0


def test_exception_inside_a_plan_propagates_with_its_frame():
    import traceback

    def exploding_plan():
        metrics = yield [SweepPoint(cfg(), IDEAL)]
        raise LookupError(f"aggregating {len(metrics)} run(s)")

    with pytest.raises(LookupError, match="aggregating 1 run") as info:
        SweepRunner(workers=1).drive(exploding_plan())
    frames = [f.name for f in traceback.extract_tb(info.value.__traceback__)]
    assert frames[-1] == "exploding_plan" and "drive" in frames


def test_planned_uses_the_given_runner_and_nothing_else(monkeypatch):
    @planned
    def run_steps(*, steps=(2,)):
        """Steps of each run."""
        metrics = yield [SweepPoint(cfg(steps=s), IDEAL) for s in steps]
        return [m.steps for m in metrics]

    assert run_steps.__name__ == "run_steps" and run_steps.__doc__
    assert run_steps() == [2]                    # a runner of its own

    r = SweepRunner(workers=1)
    monkeypatch.setattr("repro.sweep.runner.SweepRunner", None)
    assert run_steps(steps=(2, 4), runner=r) == [2, 4]
    assert r.cache.stats()["misses"] == 2        # every run went through r


def test_cached_run_matches_direct_run_app():
    p = SweepPoint(cfg(), IDEAL)
    via_runner = SweepRunner(workers=1).run_one(p)
    direct = run_app(cfg(), IDEAL)
    assert via_runner.to_dict() == direct.to_dict()
