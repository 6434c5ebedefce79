"""MPI process groups.

Groups are immutable ordered collections of simulated processes.  The
failed-process identification procedure of the paper (Fig. 6) is built
entirely from the group operations implemented here:
``MPI_Group_compare``, ``MPI_Group_difference`` and
``MPI_Group_translate_ranks``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .errors import UNDEFINED, RankError

# MPI_Group_compare results
IDENT = 0       #: same members, same order
SIMILAR = 1     #: same members, different order
UNEQUAL = 2     #: different members


class Group:
    """Immutable ordered set of processes; rank == position.  ``uids``
    and a uid -> rank index are built once and answer every lookup."""

    __slots__ = ("procs", "uids", "_rank")

    def __init__(self, procs: Iterable):
        self.procs: Tuple = tuple(procs)
        self.uids: Tuple[int, ...] = tuple(p.uid for p in self.procs)
        self._rank = {uid: i for i, uid in enumerate(self.uids)}
        if len(self._rank) != len(self.procs):
            raise RankError("duplicate process in group")

    # -- basics ------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.procs)

    def __len__(self) -> int:
        return len(self.procs)

    def __iter__(self):
        return iter(self.procs)

    def __contains__(self, proc) -> bool:
        return proc.uid in self._rank

    def rank_of(self, proc) -> int:
        """Rank of ``proc`` in this group, or ``UNDEFINED``."""
        return self._rank.get(proc.uid, UNDEFINED)

    def __eq__(self, other) -> bool:
        return isinstance(other, Group) and self.uids == other.uids

    def __hash__(self):
        return hash(self.uids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Group[{', '.join(p.name for p in self.procs)}]"

    # -- MPI group algebra ---------------------------------------------------
    def compare(self, other: "Group") -> int:
        """``MPI_Group_compare``: IDENT, SIMILAR or UNEQUAL."""
        if self.uids == other.uids:
            return IDENT
        if self._rank.keys() == other._rank.keys():
            return SIMILAR
        return UNEQUAL

    def difference(self, other: "Group") -> "Group":
        """``MPI_Group_difference``: my members not in ``other`` (my order)."""
        return Group(p for p in self.procs if p.uid not in other._rank)

    def intersection(self, other: "Group") -> "Group":
        return Group(p for p in self.procs if p.uid in other._rank)

    def union(self, other: "Group") -> "Group":
        extra = [p for p in other.procs if p.uid not in self._rank]
        return Group(list(self.procs) + extra)

    def incl(self, ranks: Sequence[int]) -> "Group":
        """``MPI_Group_incl``: sub-group of the given ranks, in that order."""
        try:
            return Group(self.procs[r] for r in ranks)
        except IndexError as exc:
            raise RankError(f"rank out of range in incl({ranks})") from exc

    def excl(self, ranks: Sequence[int]) -> "Group":
        bad = set(ranks)
        for r in bad:
            if not (0 <= r < self.size):
                raise RankError(f"rank {r} out of range in excl")
        return Group(p for i, p in enumerate(self.procs) if i not in bad)

    def translate_ranks(self, ranks: Sequence[int], other: "Group") -> List[int]:
        """``MPI_Group_translate_ranks``: map my ranks to ranks in ``other``.

        Unmatched processes map to ``UNDEFINED``.
        """
        out = []
        for r in ranks:
            if not (0 <= r < self.size):
                raise RankError(f"rank {r} out of range in translate_ranks")
            out.append(other._rank.get(self.uids[r], UNDEFINED))
        return out
