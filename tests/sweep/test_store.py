"""SharedStore scans: one directory walk answers ``keys``, ``len``,
``stats``, ``verify`` and ``gc`` exactly as a recursive glob of the
same tree does."""

import os
import pickle

import pytest

from repro.sweep import RunCache
from repro.sweep.store import STORE_FORMAT_VERSION, SharedStore


@pytest.fixture
def messy(tmp_path):
    """A store with blobs in three shards (written out of key order), a
    truncated blob, a tmp file at the root and one in a shard, a
    quarantined blob, stray non-blob files and an empty shard."""
    store = SharedStore(tmp_path / "store")
    for key in ("ff10", "aa02", "bc00", "aa01"):
        store.put(key, pickle.dumps({"key": key, "pad": "x" * len(key)}))
    store.put("bc02", pickle.dumps([1, 2, 3])[:-2])
    store.put("bc01", b"quarantined")
    store.quarantine("bc01")
    root = store.directory
    (root / ".STORE_META.json.1.2.tmp").write_bytes(b"{")
    (root / "aa" / ".aa03.pkl.1.2.tmp").write_bytes(b"half")
    (root / "ff" / "notes.txt").write_text("not a blob")
    (root / "README").write_text("not a shard")
    (root / "ee").mkdir()
    return store


def _reference(root):
    """What the store holds, by recursive glob."""
    blobs = sorted(p for p in root.rglob("*.pkl")
                   if p.parent.parent == root and p.is_file())
    tmp = sorted(root.rglob("*.tmp"))
    corrupt = sorted(root.rglob("*.corrupt"))
    ok, bad = [], []
    for path in blobs:
        try:
            pickle.loads(path.read_bytes())
        except Exception:
            bad.append(path.stem)
        else:
            ok.append(path.stem)
    return {
        "keys": [p.stem for p in blobs],
        "stats": {"entries": len(blobs),
                  "bytes": sum(p.stat().st_size for p in blobs),
                  "shards": len({p.parent.name for p in blobs}),
                  "corrupt": len(corrupt), "tmp_files": len(tmp),
                  "format_version": STORE_FORMAT_VERSION},
        "verify": {"ok": ok, "corrupt": bad},
        "gc": {"tmp_removed": len(tmp), "corrupt_removed": len(corrupt)},
    }


def test_scans_match_a_recursive_glob(messy):
    expected = _reference(messy.directory)
    assert expected["keys"] == ["aa01", "aa02", "bc00", "bc02", "ff10"]
    assert expected["stats"]["tmp_files"] == 2
    assert expected["stats"]["corrupt"] == 1
    assert messy.keys() == expected["keys"]
    assert len(messy) == len(expected["keys"])
    assert messy.stats().to_dict() == expected["stats"]
    assert messy.verify() == expected["verify"]
    assert messy.gc() == expected["gc"]
    # gc removed exactly the leftovers: blobs, strays and shards stay
    after = _reference(messy.directory)
    assert after["keys"] == expected["keys"]
    assert after["gc"] == {"tmp_removed": 0, "corrupt_removed": 0}
    assert (messy.directory / "ff" / "notes.txt").is_file()
    assert (messy.directory / "ee").is_dir()
    assert messy.gc() == after["gc"]


def test_a_missing_directory_reads_as_zeros(tmp_path):
    store = SharedStore(tmp_path / "never-written")
    assert store.keys() == [] and len(store) == 0
    assert store.stats().to_dict() == {
        "entries": 0, "bytes": 0, "shards": 0, "corrupt": 0,
        "tmp_files": 0, "format_version": STORE_FORMAT_VERSION}
    assert store.verify() == {"ok": [], "corrupt": []}
    assert store.gc() == {"tmp_removed": 0, "corrupt_removed": 0}
    assert list(tmp_path.iterdir()) == []


def test_each_scan_lists_the_root_once(messy, monkeypatch):
    cache = RunCache(directory=str(messy.directory))
    cache.put("ab00", {"in": "both layers"})
    listed = []
    scandir = os.scandir

    def counting(path="."):
        if os.fspath(path) == os.fspath(messy.directory):
            listed.append(path)
        return scandir(path)

    monkeypatch.setattr(os, "scandir", counting)
    for scan in (messy.keys, messy.__len__, messy.stats, messy.verify,
                 messy.gc):
        listed.clear()
        scan()
        assert len(listed) == 1, scan.__name__
    listed.clear()
    stats = cache.stats()
    assert len(listed) == 1
    assert stats["disk_entries"] == 6 and stats["entries"] == 6
    assert stats["memory_entries"] == 1
    # /v1/cache/stats answers both halves from that one walk
    from repro.service.server import ServiceState
    state = ServiceState(cache=cache, queue_workers=1)
    try:
        listed.clear()
        status, doc = state.cache_stats()
        assert len(listed) == 1
    finally:
        state.queue.shutdown()
    assert status == 200
    assert doc["cache"] == stats
    assert doc["store"] == messy.stats().to_dict()
