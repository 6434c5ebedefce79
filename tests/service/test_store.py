"""SharedStore: shard layout, atomic publication, quarantine, gc."""

import os
import pickle
import threading

import pytest

from repro.sweep.store import STORE_FORMAT_VERSION, SharedStore


@pytest.fixture
def store(tmp_path):
    return SharedStore(tmp_path / "store")


def test_put_get_round_trip(store):
    blob = pickle.dumps({"x": 1})
    store.put("abcdef0123", blob)
    assert store.get("abcdef0123") == blob
    assert "abcdef0123" in store
    assert store.get("feedface") is None
    assert "feedface" not in store


def test_sharded_layout(store):
    store.put("abcdef", b"1")
    store.put("ab0000", b"2")
    store.put("cd0000", b"3")
    assert (store.directory / "ab" / "abcdef.pkl").is_file()
    assert (store.directory / "ab" / "ab0000.pkl").is_file()
    assert (store.directory / "cd" / "cd0000.pkl").is_file()
    assert len(store) == 3
    assert sorted(store.keys()) == ["ab0000", "abcdef", "cd0000"]


def test_meta_file_written_once(tmp_path):
    s1 = SharedStore(tmp_path)
    assert s1.format_version() == STORE_FORMAT_VERSION
    s1.put("aa00", b"x")
    # neither reopening nor a later put rewrites it
    meta = tmp_path / "STORE_META.json"
    before = meta.stat().st_mtime_ns
    SharedStore(tmp_path).put("bb00", b"y")
    assert meta.stat().st_mtime_ns == before


def test_reading_a_store_writes_nothing(tmp_path):
    """Regression: opening a store stamped it, so ``repro cache stats`` on
    an empty or foreign directory planted ``STORE_META.json`` there."""
    store = SharedStore(tmp_path)
    assert store.stats().entries == 0
    assert store.verify() == {"ok": [], "corrupt": []}
    assert store.get("abcd") is None and "abcd" not in store
    assert store.keys() == [] and len(store) == 0
    assert store.quarantine("abcd") is None
    assert store.gc() == {"tmp_removed": 0, "corrupt_removed": 0}
    assert list(tmp_path.iterdir()) == []
    # the stamp appears with the first blob
    store.put("abcd", b"x")
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["STORE_META.json", "ab"]


def test_invalid_keys_rejected(store):
    for bad in ("", "../etc", "a/b", "a.b"):
        with pytest.raises(ValueError):
            store.put(bad, b"x")
        with pytest.raises(ValueError):
            store.path_for(bad)


def test_overwrite_is_last_writer_wins(store):
    store.put("aa11", b"old")
    store.put("aa11", b"new")
    assert store.get("aa11") == b"new"
    assert len(store) == 1


def test_writes_leave_no_tmp_files(store):
    for i in range(20):
        store.put(f"aa{i:02d}", b"x" * 100)
    assert store.stats().tmp_files == 0


def test_concurrent_writers_same_key(store):
    blob = b"y" * 4096
    threads = [threading.Thread(target=store.put, args=("abcd", blob))
               for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert store.get("abcd") == blob
    assert store.stats().tmp_files == 0


def test_quarantine_hides_entry(store):
    store.put("abcd", b"zzz")
    moved = store.quarantine("abcd")
    assert moved is not None and moved.suffix == ".corrupt"
    assert store.get("abcd") is None
    assert "abcd" not in store
    assert store.stats().corrupt == 1
    # quarantining a missing key is a no-op
    assert store.quarantine("abcd") is None


def test_verify_reports_and_quarantines_corrupt(store):
    store.put("aa00", pickle.dumps([1, 2]))
    store.put("bb00", pickle.dumps([1, 2])[:-3])     # truncated
    report = store.verify()
    assert report["ok"] == ["aa00"] and report["corrupt"] == ["bb00"]
    assert store.stats().corrupt == 0                # report-only
    report = store.verify(quarantine=True)
    assert report["corrupt"] == ["bb00"]
    assert store.stats().corrupt == 1
    assert store.get("bb00") is None


def test_gc_sweeps_tmp_and_corrupt(store):
    store.put("aa00", b"keep")
    (store.shard_dir("aa00") / ".junk.pkl.1.2.tmp").write_bytes(b"")
    store.put("bb00", b"bad")
    store.quarantine("bb00")
    report = store.gc()
    assert report["tmp_removed"] == 1
    assert report["corrupt_removed"] == 1
    assert store.get("aa00") == b"keep"
    stats = store.stats()
    assert stats.tmp_files == 0 and stats.corrupt == 0


def test_stats_counts(store):
    for i in range(5):
        store.put(f"aa{i:02d}", b"x" * 10)
    store.put("bb00", b"x" * 10)
    s = store.stats()
    assert s.entries == 6
    assert s.bytes == 60
    assert s.shards == 2
    assert s.format_version == STORE_FORMAT_VERSION
    assert s.to_dict()["entries"] == 6


def test_atomic_write_never_exposes_partial(store):
    """A reader polling during rapid rewrites sees only complete blobs."""
    stop = False
    seen_bad = []

    def reader():
        while not stop:
            blob = store.get("abcd")
            if blob is not None and blob not in (b"A" * 2048, b"B" * 2048):
                seen_bad.append(len(blob))

    t = threading.Thread(target=reader)
    t.start()
    try:
        for i in range(200):
            store.put("abcd", (b"A" if i % 2 else b"B") * 2048)
    finally:
        stop = True
        t.join()
    assert not seen_bad


def test_vanished_file_reads_as_miss(store, monkeypatch):
    store.put("abcd", b"x")
    path = store.path_for("abcd")
    real_read_bytes = type(path).read_bytes

    def racy_read(self):
        if self.name == "abcd.pkl":
            raise FileNotFoundError(self)   # concurrent gc won the race
        return real_read_bytes(self)

    monkeypatch.setattr(type(path), "read_bytes", racy_read)
    assert store.get("abcd") is None
