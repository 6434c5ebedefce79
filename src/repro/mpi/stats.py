"""The read-only view of one universe's MPI traffic counters.

The universe's :class:`~repro.obs.registry.MetricsRegistry` is the only
store: the code that does the traffic bumps each ``mpi_*`` counter in
place.  :class:`CommStats` (``universe.stats``) reads it back under the
names the benchmarks and the golden records use.
"""

from __future__ import annotations

from collections import Counter

from ..obs.registry import MetricsRegistry


def _count(name: str) -> property:
    return property(lambda self: self._registry.counter(name).value)


class CommStats:
    """Counters over one universe's lifetime, read from its registry."""

    __slots__ = ("_registry",)

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry

    messages = _count("mpi_messages")
    bytes_sent = _count("mpi_bytes_sent")
    comms_created = _count("mpi_comms_created")
    spawns = _count("mpi_spawns")
    procs_spawned = _count("mpi_procs_spawned")
    kills = _count("mpi_kills")

    @property
    def collectives(self) -> Counter:
        """Calls per collective op (a snapshot; a missing op reads 0)."""
        return Counter({dict(c.labels)["op"]: c.value
                        for c in self._registry.counters("mpi_collectives")})
