"""Content-addressed run cache: keying rules and blob-store semantics."""

import numpy as np
import pytest

from repro.core import AppConfig, RunMetrics
from repro.ft.checkpoint import Disk
from repro.ft.failure_injection import Kill
from repro.machine.presets import IDEAL, OPL, RAIJIN
from repro.sweep import RunCache, cacheable, fingerprint, run_key


def cfg(**kw):
    kw.setdefault("n", 6)
    kw.setdefault("level", 4)
    kw.setdefault("technique_code", "CR")
    kw.setdefault("steps", 4)
    kw.setdefault("diag_procs", 2)
    return AppConfig(**kw)


# ----------------------------------------------------------------------
# fingerprint / run_key
# ----------------------------------------------------------------------

def test_fingerprint_is_stable():
    assert fingerprint(cfg()) == fingerprint(cfg())
    assert run_key(cfg(), OPL) == run_key(cfg(), OPL)


def test_key_changes_with_any_config_field():
    base = run_key(cfg(), OPL)
    assert run_key(cfg(n=7), OPL) != base
    assert run_key(cfg(steps=8), OPL) != base
    assert run_key(cfg(technique_code="RC"), OPL) != base
    assert run_key(cfg(simulated_lost_gids=(1,)), OPL) != base
    assert run_key(cfg(compute_scale=2.0), OPL) != base
    assert run_key(cfg(checkpoint_count=None), OPL) != base


def test_key_changes_with_machine_kills_and_spares():
    base = run_key(cfg(), OPL)
    assert run_key(cfg(), RAIJIN) != base
    assert run_key(cfg(), IDEAL) != base
    assert run_key(cfg(), OPL, kills=(Kill(3, 1.0),)) != base
    assert run_key(cfg(), OPL, kills=(Kill(3, 2.0),)) != base
    assert run_key(cfg(), OPL, n_spares=1) != base


def test_fingerprint_distinguishes_float_bit_patterns():
    assert fingerprint(0.1 + 0.2) != fingerprint(0.3)
    assert fingerprint(np.float64(1.0)) == fingerprint(np.float64(1.0))


def test_fingerprint_covers_ndarrays():
    a = np.arange(6.0).reshape(2, 3)
    assert fingerprint(a) == fingerprint(a.copy())
    assert fingerprint(a) != fingerprint(a.T)
    assert fingerprint(a) != fingerprint(a.astype(np.float32))


def test_results_epoch_keys_runs_and_experiment_documents(monkeypatch):
    """A change that moves computed values bumps ``RESULTS_EPOCH``; both
    the run keys and the served-document keys must then read as cold."""
    from repro.service.server import ServiceState
    from repro.sweep import cache
    run_before = run_key(cfg(), OPL)
    doc_before = ServiceState.experiment_key("fig9", True)
    monkeypatch.setattr(cache, "RESULTS_EPOCH", cache.RESULTS_EPOCH + 1)
    assert run_key(cfg(), OPL) != run_before
    assert ServiceState.experiment_key("fig9", True) != doc_before


def test_disk_bearing_configs_are_uncacheable():
    assert cacheable(cfg())
    assert not cacheable(cfg(disk=Disk()))


# ----------------------------------------------------------------------
# RunCache
# ----------------------------------------------------------------------

def _metrics(**kw):
    m = RunMetrics(technique="CR", machine="OPL", n=6, level=4, steps=4,
                   world_size=9)
    for k, v in kw.items():
        setattr(m, k, v)
    return m


def test_cache_round_trip_and_stats():
    c = RunCache()
    key = run_key(cfg(), OPL)
    assert c.get(key) is None
    c.put(key, _metrics(t_solve=1.5))
    got = c.get(key)
    assert got.t_solve == 1.5
    assert len(c) == 1 and key in c
    s = c.stats()
    assert s == {"entries": 1, "memory_entries": 1, "disk_entries": 0,
                 "hits": 1, "misses": 1, "hit_rate": 0.5}


def test_cache_returns_owned_copies():
    c = RunCache()
    c.put("k", _metrics(phase_breakdown={"solve": 1.0}))
    first = c.get("k")
    first.phase_breakdown["solve"] = 99.0
    first.t_solve = -1.0
    again = c.get("k")
    assert again.phase_breakdown == {"solve": 1.0}
    assert again.t_solve != -1.0


def test_cache_persists_to_disk(tmp_path):
    d = str(tmp_path / "cache")
    c1 = RunCache(directory=d)
    c1.put("deadbeef", _metrics(t_total=3.0))
    # a fresh instance over the same directory serves the entry
    c2 = RunCache(directory=d)
    got = c2.get("deadbeef")
    assert got is not None and got.t_total == 3.0
    assert c2.stats()["hits"] == 1


def test_failed_store_write_leaves_the_key_a_miss(tmp_path, monkeypatch):
    """Regression: ``put`` published to memory before the store write, so
    ``repro serve`` answered 200 for a document that was not on disk."""
    c = RunCache(directory=str(tmp_path / "cache"))

    def full_disk(key, blob):
        raise OSError("no space left on device")
    monkeypatch.setattr(c.store, "put", full_disk)
    with pytest.raises(OSError):
        c.put("deadbeef", _metrics())
    assert c.load("deadbeef") is None
    assert "deadbeef" not in c and len(c) == 0


def test_in_memory_cache_does_not_persist():
    c1 = RunCache()
    c1.put("k", _metrics())
    assert RunCache().get("k") is None


def test_disk_layer_is_sharded_and_atomic(tmp_path):
    d = str(tmp_path / "cache")
    c = RunCache(directory=d)
    c.put("deadbeef", _metrics())
    shard = c.store.directory / "de" / "deadbeef.pkl"
    assert shard.is_file()
    assert c.store.stats().tmp_files == 0


def test_corrupt_disk_blob_is_a_miss_and_quarantined(tmp_path):
    """Regression: a truncated blob (a torn copy) must read as a miss,
    not crash ``pickle.loads``."""
    d = str(tmp_path / "cache")
    c1 = RunCache(directory=d)
    c1.put("deadbeef", _metrics(t_total=3.0))
    path = c1.store.path_for("deadbeef")
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])      # torn write

    c2 = RunCache(directory=d)
    assert c2.get("deadbeef") is None
    assert c2.stats()["misses"] == 1
    # the bad blob is quarantined, not deleted and not retried
    assert not path.exists()
    assert c2.store.stats().corrupt == 1
    # the key is writable again and round-trips
    c2.put("deadbeef", _metrics(t_total=4.0))
    assert RunCache(directory=d).get("deadbeef").t_total == 4.0


def test_fresh_process_counts_disk_entries(tmp_path):
    """Regression: a fresh RunCache over a warm --cache DIR used to
    report ``entries: 0`` (it counted only the in-memory layer)."""
    d = str(tmp_path / "cache")
    c1 = RunCache(directory=d)
    c1.put("deadbeef", _metrics())
    c1.put("cafebabe", _metrics())

    c2 = RunCache(directory=d)
    assert len(c2) == 2
    s = c2.stats()
    assert s["entries"] == 2
    assert s["disk_entries"] == 2
    assert s["memory_entries"] == 0
    # an entry in both layers is counted once
    c2.get("deadbeef")
    assert c2.stats()["entries"] == 2
    assert c2.stats()["memory_entries"] == 1
