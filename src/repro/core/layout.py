"""Process layout: mapping scheme grids to process groups and world ranks.

The paper's load-balancing rule: lower-diagonal grids hold half the
unknowns of diagonal grids, so they get half the processes; each extra
layer halves again.  Fig. 9's configuration is 8/4/2/1 processes per
diagonal (incl. duplicate) / lower / upper-extra / lower-extra grid.

Two layout builders exist:

* :meth:`Layout.paper` — the halving rule above (Figs. 9-11);
* :meth:`Layout.sweep` — diagonal ``p``, lower ``p/4``: for the plain CR
  scheme (4 diagonal + 3 lower grids) this yields exactly the Table I /
  Fig. 8 core counts 19, 38, 76, 152, 304 for p = 4, 8, 16, 32, 64.

Ranks are assigned to grids contiguously in gid order, so world rank 0 (the
controller, which must never fail) is the root of grid 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..sparsegrid.index import CombinationScheme


@dataclass(frozen=True)
class GridAssignment:
    """One grid's slice of the world communicator."""

    gid: int
    index: Tuple[int, int]
    role: str
    ranks: Tuple[int, ...]

    @property
    def root(self) -> int:
        return self.ranks[0]

    @property
    def n_procs(self) -> int:
        return len(self.ranks)


class Layout:
    """Immutable grid -> process-group map: ``groups[gid]`` are the world
    ranks of grid ``gid``.

    A launch layout (:meth:`paper`, :meth:`sweep`) assigns contiguous ranks
    in gid order; :meth:`survivors` re-expresses one in survivor numbering
    after a shrink, where a group may be empty and ``adoptions`` records
    the orphan grids that took a donor (``{}`` on a launch layout).
    """

    def __init__(self, scheme: CombinationScheme,
                 groups: Sequence[Sequence[int]],
                 adoptions: Optional[Dict[int, int]] = None):
        self.scheme = scheme
        self.assignments: Tuple[GridAssignment, ...] = tuple(
            GridAssignment(g.gid, g.index, g.role, tuple(ranks))
            for g, ranks in zip(scheme.grids, groups))
        self.adoptions: Dict[int, int] = dict(adoptions or {})
        self.total_procs = sum(map(len, groups))
        self._rank_to_gid = [0] * self.total_procs
        for a in self.assignments:
            for r in a.ranks:
                self._rank_to_gid[r] = a.gid

    # ------------------------------------------------------------------
    @classmethod
    def from_counts(cls, scheme: CombinationScheme,
                    counts: Dict[int, int]) -> "Layout":
        """Contiguous ranks in gid order, ``counts[gid]`` for grid ``gid``."""
        groups: List[range] = []
        next_rank = 0
        for g in scheme.grids:
            n = counts[g.gid]
            if n < 1:
                raise ValueError(f"grid {g.gid} needs at least one process")
            max_axis = 1 << max(g.index)
            if n > max_axis:
                raise ValueError(
                    f"grid {g.gid} {g.index} cannot host {n} slabs "
                    f"(longest axis has {max_axis} points)")
            groups.append(range(next_rank, next_rank + n))
            next_rank += n
        return cls(scheme, groups)

    @classmethod
    def paper(cls, scheme: CombinationScheme, diag_procs: int = 8) -> "Layout":
        """Halving rule: layer k gets ``diag_procs >> k`` processes (min 1);
        duplicates get the diagonal count."""
        counts = {}
        for g in scheme.grids:
            counts[g.gid] = max(1, diag_procs >> g.layer)
        return cls.from_counts(scheme, counts)

    @classmethod
    def sweep(cls, scheme: CombinationScheme, diag_procs: int = 4) -> "Layout":
        """Scaling-sweep rule: diagonal ``p``, deeper layers ``p/4^k`` —
        reproduces the 19/38/76/152/304 totals of Table I on the CR scheme."""
        counts = {}
        for g in scheme.grids:
            counts[g.gid] = max(1, diag_procs >> (2 * g.layer))
        return cls.from_counts(scheme, counts)

    # ------------------------------------------------------------------
    def gid_of(self, rank: int) -> int:
        return self._rank_to_gid[rank]

    def assignment(self, gid: int) -> GridAssignment:
        return self.assignments[gid]

    def root_rank(self, gid: int) -> int:
        a = self.assignments[gid]
        if not a.ranks:
            raise ValueError(
                f"grid {gid} has no surviving processes after shrink")
        return a.root

    def group_ranks(self, gid: int) -> Tuple[int, ...]:
        return self.assignments[gid].ranks

    def grids_of_ranks(self, ranks) -> List[int]:
        """Distinct grid ids touched by the given world ranks (sorted)."""
        return sorted({self.gid_of(r) for r in ranks})

    def conflict_pairs_ranks(self) -> List[Tuple[int, int]]:
        """RC conflict pairs expressed at grid level (passed to the
        failure generator together with :meth:`gid_of`)."""
        return self.scheme.rc_conflict_pairs()

    def survivors(self, members, adopt_orphans: bool) -> "Layout":
        """This layout in *survivor* world numbering after a shrink left
        only ``members`` (launch-time ranks, indexed by current world rank).

        The shrink-in-place recovery mode never replaces dead processes:
        the world contracts and every surviving rank gets a new, smaller
        world rank (original relative order preserved).  A grid that lost
        members shrinks, a grid that lost everyone becomes empty
        (``n_procs == 0``).

        With ``adopt_orphans``, a grid that lost every member is instead
        *adopted*: a donor rank is taken from a surviving group (preferring
        groups with no losses, then the largest, then the lowest gid; never
        a group's sole member, and — soft preference — never a group whose
        RC replica/resample partner is already damaged) and reassigned to
        the orphan grid, so the lost grid's work migrates onto a survivor
        that can restore it through the recovery technique.  The choice is
        a pure function of ``(self, members)``, so every rank computes the
        same adoption.  ``adoptions`` maps orphan gid -> the donor's
        original gid (the donor's old group contracted and needs
        restoration too).

        Memoised: every survivor of one repair shares one layout.
        """
        return _survivor_layout(self, tuple(members), adopt_orphans)

    def _adopt_orphans(self, groups: List[List[int]]) -> Dict[int, int]:
        base_sizes = [len(a.ranks) for a in self.assignments]
        conflict: Dict[int, set] = {}
        for x, y in self.scheme.rc_conflict_pairs():
            conflict.setdefault(x, set()).add(y)
            conflict.setdefault(y, set()).add(x)
        adoptions: Dict[int, int] = {}
        for gid, orphan in enumerate(groups):  # deterministic everywhere
            if orphan:
                continue
            # an orphan adopted earlier in this loop is back to its base
            # size but still has to be refilled, like its donor's group
            damaged = {g for g, rs in enumerate(groups)
                       if len(rs) < base_sizes[g]} | set(adoptions)
            cands = [g for g, rs in enumerate(groups) if len(rs) >= 2]
            safe = [g for g in cands if not (conflict.get(g, set()) & damaged)]
            pool = safe or cands  # conflicting donor beats no donor: the
            # technique's own loss validation reports the real constraint
            if not pool:
                raise RuntimeError(
                    f"shrink-in-place cannot re-balance: grid {gid} lost "
                    f"every member and no surviving grid can spare a donor "
                    f"process (all groups are down to one member)")
            pool.sort(key=lambda g: (len(groups[g]) < base_sizes[g],
                                     -len(groups[g]), g))
            donor_gid = pool[0]
            orphan.append(groups[donor_gid].pop())
            adoptions[gid] = donor_gid
        return adoptions

    def describe(self) -> str:
        lines = [f"Layout: {self.total_procs} processes over "
                 f"{len(self.assignments)} grids"]
        for a in self.assignments:
            span = (f"ranks {a.ranks[0]}..{a.ranks[-1]}" if a.ranks
                    else "no survivors")
            lines.append(f"  grid {a.gid:2d} {a.role:9s} {a.index} -> "
                         f"{span} ({a.n_procs})")
        return "\n".join(lines)


@lru_cache(maxsize=None)
def layout_for(scheme: CombinationScheme, mode: str,
               diag_procs: int) -> Layout:
    """Shared layout instances, keyed on scheme *identity* (schemes come
    from :func:`repro.sparsegrid.index.cached_scheme`, so equal
    configurations share one object).  Layouts are immutable, and a sweep
    asks for the same handful of them thousands of times."""
    if mode == "paper":
        return Layout.paper(scheme, diag_procs)
    if mode == "sweep":
        return Layout.sweep(scheme, diag_procs)
    raise ValueError(f"unknown layout mode {mode!r}")


@lru_cache(maxsize=64)
def _survivor_layout(layout: Layout, members: Tuple[int, ...],
                     adopt_orphans: bool) -> Layout:
    """:meth:`Layout.survivors`, keyed on the launch layout's identity."""
    groups: List[List[int]] = [[] for _ in layout.assignments]
    for r, m in enumerate(members):
        groups[layout.gid_of(m)].append(r)
    adoptions = layout._adopt_orphans(groups) if adopt_orphans else {}
    return Layout(layout.scheme, [sorted(g) for g in groups], adoptions)
