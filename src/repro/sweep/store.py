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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

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


def _listdir(path) -> List[os.DirEntry]:
    """``path``'s entries by name; none when it does not exist (a store
    nothing has been written to yet)."""
    try:
        with os.scandir(path) as entries:
            return sorted(entries, key=lambda entry: entry.name)
    except (FileNotFoundError, NotADirectoryError):
        return []


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
        return asdict(self)


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
    def _scan(self) -> Tuple[List[Tuple[str, str, os.DirEntry]],
                             Dict[str, List[str]]]:
        """The one walk every scan reads: the root and each shard
        directory (the whole layout), each listed once.  Returns the
        blobs as ``(shard, key, entry)`` in key order and the paths of
        the leftover files by suffix (tmp files, quarantined blobs)."""
        blobs, leftovers = [], {_TMP_SUFFIX: [], _CORRUPT_SUFFIX: []}
        for entry in _listdir(self.directory):
            shard = entry.name if entry.is_dir() else None
            for item in _listdir(entry.path) if shard else [entry]:
                key, suffix = os.path.splitext(item.name)
                if suffix in leftovers:
                    leftovers[suffix].append(item.path)
                elif shard and suffix == _BLOB_SUFFIX and item.is_file():
                    blobs.append((shard, key, item))
        return blobs, leftovers

    def keys(self) -> List[str]:
        return [key for _, key, _ in self._scan()[0]]

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        return len(self._scan()[0])

    def stats(self) -> StoreStats:
        return self.survey()[1]

    def survey(self) -> Tuple[List[str], StoreStats]:
        """:meth:`keys` and :meth:`stats` from one walk."""
        blobs, leftovers = self._scan()
        entries = n_bytes = 0
        shards = set()
        for shard, _, item in blobs:
            try:
                n_bytes += item.stat().st_size
            except OSError:
                continue                             # raced with a gc
            entries += 1
            shards.add(shard)
        return [key for _, key, _ in blobs], StoreStats(
            entries=entries, bytes=n_bytes, shards=len(shards),
            corrupt=len(leftovers[_CORRUPT_SUFFIX]),
            tmp_files=len(leftovers[_TMP_SUFFIX]),
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
        for _, key, item in self._scan()[0]:
            try:
                loads(Path(item.path).read_bytes())
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
        removed = dict.fromkeys((_TMP_SUFFIX, _CORRUPT_SUFFIX), 0)
        for suffix, paths in self._scan()[1].items():
            for path in paths:
                try:
                    os.unlink(path)
                    removed[suffix] += 1
                except OSError:
                    pass                # a concurrent gc got there first
        return {"tmp_removed": removed[_TMP_SUFFIX],
                "corrupt_removed": removed[_CORRUPT_SUFFIX]}
