"""Content-addressed memoisation of application runs.

A run is fully deterministic given ``(config, machine, kill plan,
n_spares)`` — :mod:`repro.core.runner` documents this contract — so its
:class:`~repro.core.metrics.RunMetrics` can be reused whenever the exact
same point recurs: the zero-lost baselines that Fig. 10/11 request once
per failure count, Table I / Fig. 8 sharing their two-failure CR runs,
or a full ``fig9`` rerun against a warm on-disk cache.

Keys are a SHA-256 over a *canonical structural fingerprint* of the run
inputs, not over pickles: pickle bytes are not stable across dict
ordering or interpreter details, while the fingerprint recurses through
dataclasses field-by-field, sorts mappings, names functions by module
and qualname, and spells floats in hex.  Anything that changes the
simulation — a config field, the machine's cost parameters, the kill
schedule — changes the key; see ``docs/performance.md`` for the full
keying rules.

Cached values are stored as pickle blobs (never live objects) for two
reasons: a cache hit hands back an *owned* deep copy that the caller may
mutate freely, and the serial (``workers=1``) path exercises exactly the
same transport contract as the process pool, so "it only breaks under
``--workers``" bugs cannot exist.

This class hides the codec and the memory tier; the on-disk layout is
:class:`repro.sweep.store.SharedStore`'s alone (sharded
fingerprint-prefix subdirectories, atomic tmp-file + ``os.replace``
writes, lock-free last-writer-wins reads), so any number of processes
(sweep clients, ``repro serve`` workers) may share one ``--cache DIR``.
A blob that fails to unpickle — a torn copy, a foreign file — is
quarantined on disk and the key reads as a miss, so corruption can cost
a recompute but never an exception or a wrong result.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from dataclasses import fields, is_dataclass
from typing import Dict, List, Optional

from .store import SharedStore

__all__ = ["RESULTS_EPOCH", "RunCache", "cacheable", "fingerprint",
           "run_key"]

#: Numerics epoch of stored results, part of every run key and every
#: experiment-document key.  Bump it in any change that moves computed
#: values (even in the last bits) so a ``--cache`` directory written by
#: an older commit reads as cold instead of serving values a fresh run
#: no longer reproduces.  2: level-by-level combination, 9-coefficient
#: Lax-Wendroff kernel.  3: a ``"2d"`` sub-grid whose process grid has
#: one row runs as the ``"1d"`` ring of slabs (its halos and kernel
#: orientation, hence its values, moved).  4: the repair times are the
#: reporting rank's span totals (``t_merge`` moved where a replacement
#: reports or nc's slowest grid took in a join), and ``AppConfig`` lost
#: ``combine_target``.
RESULTS_EPOCH = 4


def _canonical(obj):
    """A hashable, repr-stable structure capturing ``obj``'s content."""
    if is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return ("dc", f"{cls.__module__}.{cls.__qualname__}",
                tuple((f.name, _canonical(getattr(obj, f.name)))
                      for f in fields(obj)))
    if isinstance(obj, dict):
        return ("map", tuple(sorted(
            (repr(_canonical(k)), _canonical(v)) for k, v in obj.items())))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(_canonical(v) for v in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canonical(v)) for v in obj)))
    if isinstance(obj, float):
        return ("f", obj.hex())
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return (type(obj).__name__, obj)
    try:
        import numpy as np
        if isinstance(obj, np.ndarray):
            payload = np.ascontiguousarray(obj).tobytes()
            return ("nd", str(obj.dtype), obj.shape,
                    hashlib.sha256(payload).hexdigest())
        if isinstance(obj, np.generic):
            return ("np", str(obj.dtype), repr(obj.item()))
    except ImportError:  # pragma: no cover - numpy is a hard dep in practice
        pass
    if callable(obj):
        # functions / classes are named, never serialised: the initial
        # condition callable in AdvectionProblem keys by identity-of-code
        mod = getattr(obj, "__module__", "?")
        qual = getattr(obj, "__qualname__", None) or getattr(
            obj, "__name__", None)
        if qual is not None:
            return ("fn", f"{mod}.{qual}")
    raise TypeError(
        f"cannot fingerprint {type(obj).__name__!s} for a run-cache key")


def fingerprint(obj) -> str:
    """Stable SHA-256 hex digest of ``obj``'s canonical structure."""
    return hashlib.sha256(repr(_canonical(obj)).encode()).hexdigest()


def run_key(cfg, machine, kills=(), n_spares: int = 0) -> str:
    """The cache key of one :func:`repro.core.runner.run_app` invocation."""
    return fingerprint(("run_app", RESULTS_EPOCH, cfg, machine, tuple(kills),
                        n_spares))


def cacheable(cfg) -> bool:
    """Only runs that own their disk are memoisable.

    A caller-supplied :class:`~repro.ft.checkpoint.Disk` carries state
    (pre-populated checkpoints) the key cannot see, and its mutations are
    an output the caller may inspect — such runs always execute, in the
    submitting process.
    """
    return cfg.disk is None


class RunCache:
    """Pickle-blob store of run metrics, in memory plus optional disk.

    The in-memory layer is always on; passing ``directory`` adds a
    write-through on-disk :class:`~repro.sweep.store.SharedStore`
    layer (sharded, atomic, multi-process-safe) that survives the
    process — the ``--cache DIR`` flag of ``repro experiment`` and the
    store behind ``repro serve``.  ``hits``/``misses`` count lookups,
    including points a :class:`~repro.sweep.runner.SweepRunner`
    deduplicated within a single batch (computed once, served twice is
    one miss plus one hit).

    All methods are thread-safe: the HTTP service shares one instance
    between its request handlers and its job-queue workers.
    """

    def __init__(self, directory: Optional[str] = None):
        self._mem: Dict[str, bytes] = {}
        self._lock = threading.RLock()
        self.store: Optional[SharedStore] = \
            SharedStore(directory) if directory else None
        self.hits = 0
        self.misses = 0

    @property
    def directory(self):
        return self.store.directory if self.store is not None else None

    # ------------------------------------------------------------------
    def _blob(self, key: str) -> Optional[bytes]:
        with self._lock:
            blob = self._mem.get(key)
        if blob is None and self.store is not None:
            blob = self.store.get(key)
            if blob is not None:
                with self._lock:
                    self._mem[key] = blob
        return blob

    def _loads(self, key: str, blob: bytes):
        """Unpickle ``blob``; a corrupt blob (torn copy, foreign file)
        is quarantined on disk, dropped from memory, and reads as a
        miss."""
        try:
            return pickle.loads(blob)
        except Exception:  # noqa: ULF001 - any unpickle failure means corrupt, not MPI
            with self._lock:
                self._mem.pop(key, None)
            if self.store is not None:
                self.store.quarantine(key)
            return None

    # ------------------------------------------------------------------
    def get(self, key: str):
        """The cached metrics for ``key`` (an owned copy), or ``None``."""
        blob = self._blob(key)
        value = None if blob is None else self._loads(key, blob)
        with self._lock:
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def load(self, key: str):
        """Like :meth:`get` but without touching the hit/miss counters
        (used to fan one executed result out to deduplicated points)."""
        blob = self._blob(key)
        return None if blob is None else self._loads(key, blob)

    def put(self, key: str, metrics) -> None:
        """Store first, then memory: once any reader (a ``repro serve``
        request thread) can see the entry it is already on disk, and a
        failed store write leaves the key a miss."""
        blob = pickle.dumps(metrics)
        if self.store is not None:
            self.store.put(key, blob)
        with self._lock:
            self._mem[key] = blob

    def note_hit(self) -> None:
        """Count a point served without execution outside :meth:`get`
        (batch-internal deduplication)."""
        with self._lock:
            self.hits += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Distinct entries across both layers: a fresh process pointed
        at a warm ``--cache DIR`` counts the disk entries it can serve,
        not the none it has touched."""
        return self.stats()["entries"]

    def __contains__(self, key: str) -> bool:
        return self._blob(key) is not None

    def stats(self, disk: Optional[List[str]] = None) -> dict:
        """Entry and lookup counts; ``disk`` is the store's key list when
        the caller has walked the store already."""
        if disk is None:
            disk = self.store.keys() if self.store is not None else []
        with self._lock:
            memory_entries = len(self._mem)
            entries = len(self._mem.keys() | set(disk))
            hits, misses = self.hits, self.misses
        total = hits + misses
        return {"entries": entries,
                "memory_entries": memory_entries,
                "disk_entries": len(disk),
                "hits": hits, "misses": misses,
                "hit_rate": round(hits / total, 4) if total else 0.0}
