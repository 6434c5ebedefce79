"""Sharded, multi-process-safe on-disk blob store.

This is the persistent layer under :class:`repro.sweep.cache.RunCache`
and, through it, the HTTP service (:mod:`repro.service` re-exports
:class:`SharedStore` and :class:`StoreStats`): one pickle blob per content key, laid out in
fingerprint-prefix shard subdirectories (``<dir>/<key[:2]>/<key>.pkl``)
so directory listings stay cheap past a few thousand entries — a flat
directory degrades linearly in entry count on every lookup-by-listing
and every ``stats()`` scan.

Concurrency model (no locks, no daemons):

* **writes are atomic** — each ``put`` writes a private tmp file in the
  destination shard and publishes it with :func:`os.replace`, so a
  reader can never observe a truncated blob and a crashed writer leaves
  only an ignorable ``*.tmp`` file (``gc`` sweeps those);
* **reads are lock-free last-writer-wins** — keys are content
  addresses, so two writers racing on one key are writing the same
  bytes; whichever rename lands last simply refreshes the mtime;
* **corrupt blobs are quarantined, never trusted** — a blob that fails
  to load is renamed to ``<key>.corrupt`` (kept for post-mortems,
  invisible to lookups) and the key reads as a miss.

Opening a store reads nothing and writes nothing: the directory and its
``STORE_META.json`` stamp appear with the first ``put``, so ``repro cache
stats|verify`` never plant a file in a directory they were only asked to
look at.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["SharedStore", "StoreStats", "STORE_FORMAT_VERSION"]

#: bumped when the on-disk layout changes incompatibly
STORE_FORMAT_VERSION = 1

#: shard = this many leading key characters (256 shards for hex keys)
_SHARD_CHARS = 2

_META_NAME = "STORE_META.json"
_BLOB_SUFFIX = ".pkl"
_CORRUPT_SUFFIX = ".corrupt"
_TMP_SUFFIX = ".tmp"


def _check_key(key: str) -> str:
    """Keys are content fingerprints: non-empty, alphanumeric (hex in
    practice).  Anything else could escape the store directory."""
    if not key or not key.isalnum():
        raise ValueError(f"invalid store key {key!r} "
                         "(expected an alphanumeric fingerprint)")
    return key


@dataclass(frozen=True)
class StoreStats:
    """One ``stats()`` snapshot (all counts from a directory scan)."""

    entries: int
    bytes: int
    shards: int
    corrupt: int
    tmp_files: int
    format_version: int

    def to_dict(self) -> dict:
        return {
            "entries": self.entries, "bytes": self.bytes,
            "shards": self.shards, "corrupt": self.corrupt,
            "tmp_files": self.tmp_files,
            "format_version": self.format_version,
        }


class SharedStore:
    """Content-keyed blob store over one directory tree.

    Safe for concurrent use from multiple threads *and* multiple
    processes pointed at the same directory; see the module docstring
    for the exact guarantees.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        #: this instance has seen to the ``STORE_META.json`` stamp (the
        #: first ``put`` writes it if absent; opening writes nothing)
        self._stamped = False

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def shard_dir(self, key: str) -> Path:
        return self.directory / _check_key(key)[:_SHARD_CHARS]

    def path_for(self, key: str) -> Path:
        """The sharded blob path (where ``put`` writes)."""
        return self.shard_dir(key) / f"{key}{_BLOB_SUFFIX}"

    def _write_meta_if_absent(self) -> None:
        meta = self.directory / _META_NAME
        if meta.is_file():
            return
        payload = json.dumps({"format_version": STORE_FORMAT_VERSION,
                              "shard_chars": _SHARD_CHARS}) + "\n"
        self._atomic_write(meta, payload.encode())

    def format_version(self) -> int:
        meta = self.directory / _META_NAME
        try:
            return int(json.loads(meta.read_text())["format_version"])
        except (OSError, ValueError, KeyError, TypeError):
            return STORE_FORMAT_VERSION

    # ------------------------------------------------------------------
    # blob I/O
    # ------------------------------------------------------------------
    @staticmethod
    def _atomic_write(dest: Path, blob: bytes) -> None:
        """Write-then-rename: ``dest`` either keeps its old content or
        holds all of ``blob`` — never a prefix.  The tmp name is unique
        per (process, thread), so concurrent writers cannot collide on
        it; ``os.replace`` is atomic on POSIX and Windows."""
        tmp = dest.parent / (
            f".{dest.name}.{os.getpid()}.{threading.get_ident()}"
            f"{_TMP_SUFFIX}")
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, dest)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    def get(self, key: str) -> Optional[bytes]:
        """The blob for ``key``, or ``None``.  A file that vanishes
        mid-read (a concurrent ``gc``) reads as a miss."""
        try:
            return self.path_for(key).read_bytes()
        except OSError:
            return None

    def put(self, key: str, blob: bytes) -> None:
        dest = self.path_for(key)
        dest.parent.mkdir(parents=True, exist_ok=True)
        if not self._stamped:
            self._write_meta_if_absent()
            self._stamped = True
        self._atomic_write(dest, blob)

    def quarantine(self, key: str) -> Optional[Path]:
        """Move ``key``'s blob aside as ``<key>.corrupt`` (kept for
        post-mortems, invisible to every lookup).  Returns the new path,
        or ``None`` when the blob is already gone."""
        path = self.path_for(key)
        dest = path.with_suffix(_CORRUPT_SUFFIX)
        try:
            os.replace(path, dest)
        except OSError:
            return None
        return dest

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def _blob_files(self) -> Iterator[Path]:
        root = self.directory
        if not root.is_dir():
            return
        for entry in sorted(root.iterdir()):
            if entry.is_dir():
                for blob in sorted(entry.glob(f"*{_BLOB_SUFFIX}")):
                    if blob.is_file():
                        yield blob

    def keys(self) -> List[str]:
        return [p.stem for p in self._blob_files()]

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self._blob_files())

    def stats(self) -> StoreStats:
        entries = n_bytes = 0
        shards = set()
        for path in self._blob_files():
            try:
                n_bytes += path.stat().st_size
            except OSError:
                continue                             # raced with a gc
            entries += 1
            shards.add(path.parent.name)
        corrupt = sum(1 for _ in self.directory.rglob(
            f"*{_CORRUPT_SUFFIX}"))
        tmp = sum(1 for _ in self.directory.rglob(f"*{_TMP_SUFFIX}"))
        return StoreStats(entries=entries, bytes=n_bytes,
                          shards=len(shards), corrupt=corrupt,
                          tmp_files=tmp,
                          format_version=self.format_version())

    # ------------------------------------------------------------------
    # maintenance (the ``repro cache`` subcommands)
    # ------------------------------------------------------------------
    def verify(self,
               loads: Callable[[bytes], object] = pickle.loads,
               quarantine: bool = False) -> Dict[str, List[str]]:
        """Load every blob; report (optionally quarantine) the corrupt
        ones.  Returns ``{"ok": [...keys], "corrupt": [...keys]}``."""
        ok: List[str] = []
        corrupt: List[str] = []
        for path in list(self._blob_files()):
            key = path.stem
            try:
                loads(path.read_bytes())
            except Exception:  # noqa: ULF001 - any load failure means corrupt, not MPI
                corrupt.append(key)
                if quarantine:
                    self.quarantine(key)
            else:
                ok.append(key)
        return {"ok": ok, "corrupt": corrupt}

    def gc(self) -> dict:
        """Housekeeping: drop leftover tmp files and quarantined blobs.
        Returns counts of each action."""
        tmp_removed = corrupt_removed = 0
        for path in list(self.directory.rglob(f"*{_TMP_SUFFIX}")):
            try:
                path.unlink()
                tmp_removed += 1
            except OSError:
                pass
        for path in list(self.directory.rglob(f"*{_CORRUPT_SUFFIX}")):
            try:
                path.unlink()
                corrupt_removed += 1
            except OSError:
                pass
        return {"tmp_removed": tmp_removed,
                "corrupt_removed": corrupt_removed}
