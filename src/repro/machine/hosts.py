"""Hosts, slots and hostfiles.

The paper's reconstruction procedure (Fig. 5) maps a failed rank to its host
via ``hostfileLineIndex = failedRank / SLOTS`` and re-spawns the replacement
on that same host to preserve load balance.  This module provides the
hostfile abstraction that makes that lookup meaningful in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

#: Default slots per host, as hard-coded in Fig. 5 of the paper.
DEFAULT_SLOTS = 12


@dataclass
class Host:
    """A compute node with a fixed number of process slots."""

    name: str
    slots: int = DEFAULT_SLOTS
    spare: bool = False
    #: number of slots currently occupied by live simulated processes
    occupied: int = 0

    @property
    def free_slots(self) -> int:
        return self.slots - self.occupied

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name!r}, {self.occupied}/{self.slots})"


class Hostfile:
    """An ordered list of hosts, mirroring an ``mpirun`` hostfile.

    Ranks are assigned to hosts in contiguous blocks of ``slots`` (the
    fill-by-slot policy the paper's rank→host arithmetic assumes).
    """

    def __init__(self, hosts: List[Host]):
        if not hosts:
            raise ValueError("hostfile must contain at least one host")
        self.hosts = list(hosts)

    @classmethod
    def uniform(cls, n_hosts: int, slots: int = DEFAULT_SLOTS,
                prefix: str = "node", n_spares: int = 0) -> "Hostfile":
        """Build ``n_hosts`` regular hosts plus ``n_spares`` spare hosts."""
        hosts = [Host(f"{prefix}{i:03d}", slots) for i in range(n_hosts)]
        hosts += [Host(f"spare{i:03d}", slots, spare=True) for i in range(n_spares)]
        return cls(hosts)

    @classmethod
    def for_ranks(cls, n_ranks: int, slots: int = DEFAULT_SLOTS,
                  n_spares: int = 0) -> "Hostfile":
        """Smallest uniform hostfile that fits ``n_ranks`` processes."""
        n_hosts = (n_ranks + slots - 1) // slots
        return cls.uniform(max(n_hosts, 1), slots, n_spares=n_spares)

    def __len__(self) -> int:
        return len(self.hosts)

    def __iter__(self) -> Iterator[Host]:
        return iter(self.hosts)

    def __getitem__(self, index: int) -> Host:
        return self.hosts[index]

    @property
    def regular_hosts(self) -> List[Host]:
        return [h for h in self.hosts if not h.spare]

    @property
    def spare_hosts(self) -> List[Host]:
        return [h for h in self.hosts if h.spare]

    def host_of_rank(self, rank: int, slots: Optional[int] = None,
                     regular: Optional[List[Host]] = None) -> Host:
        """Fig. 5 lines 5–7: the host on whose slots ``rank`` was launched.

        A caller placing many ranks passes ``regular_hosts`` once as
        ``regular`` instead of having it rebuilt per rank."""
        slots = slots if slots is not None else self.hosts[0].slots
        index = rank // slots
        regular = self.regular_hosts if regular is None else regular
        if index >= len(regular):
            raise IndexError(
                f"rank {rank} maps to hostfile line {index}, but only "
                f"{len(regular)} regular hosts exist")
        return regular[index]

    def first_fit(self) -> Host:
        """First regular host with a free slot (non-paper placement policy)."""
        for host in self.regular_hosts:
            if host.free_slots > 0:
                return host
        raise RuntimeError("no free slots on any regular host")

    def first_spare(self) -> Host:
        """First spare host with free slots (future-work placement policy)."""
        for host in self.spare_hosts:
            if host.free_slots > 0:
                return host
        raise RuntimeError("no spare hosts available")
