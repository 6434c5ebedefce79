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
from typing import Dict, List, Tuple

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
    """Immutable grid -> process-group map over a contiguous rank range."""

    def __init__(self, scheme: CombinationScheme, counts: Dict[int, int]):
        self.scheme = scheme
        self.counts = dict(counts)
        assignments: List[GridAssignment] = []
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
            ranks = tuple(range(next_rank, next_rank + n))
            assignments.append(GridAssignment(g.gid, g.index, g.role, ranks))
            next_rank += n
        self.assignments: Tuple[GridAssignment, ...] = tuple(assignments)
        self.total_procs = next_rank
        self._rank_to_gid = [0] * next_rank
        for a in assignments:
            for r in a.ranks:
                self._rank_to_gid[r] = a.gid

    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, scheme: CombinationScheme, diag_procs: int = 8) -> "Layout":
        """Halving rule: layer k gets ``diag_procs >> k`` processes (min 1);
        duplicates get the diagonal count."""
        counts = {}
        for g in scheme.grids:
            counts[g.gid] = max(1, diag_procs >> g.layer)
        return cls(scheme, counts)

    @classmethod
    def sweep(cls, scheme: CombinationScheme, diag_procs: int = 4) -> "Layout":
        """Scaling-sweep rule: diagonal ``p``, deeper layers ``p/4^k`` —
        reproduces the 19/38/76/152/304 totals of Table I on the CR scheme."""
        counts = {}
        for g in scheme.grids:
            counts[g.gid] = max(1, diag_procs >> (2 * g.layer))
        return cls(scheme, counts)

    # ------------------------------------------------------------------
    def gid_of(self, rank: int) -> int:
        return self._rank_to_gid[rank]

    def assignment(self, gid: int) -> GridAssignment:
        return self.assignments[gid]

    def root_rank(self, gid: int) -> int:
        return self.assignments[gid].root

    def group_ranks(self, gid: int) -> Tuple[int, ...]:
        return self.assignments[gid].ranks

    def grids_of_ranks(self, ranks) -> List[int]:
        """Distinct grid ids touched by the given world ranks (sorted)."""
        return sorted({self.gid_of(r) for r in ranks})

    def conflict_pairs_ranks(self) -> List[Tuple[int, int]]:
        """RC conflict pairs expressed at grid level (passed to the
        failure generator together with :meth:`gid_of`)."""
        return self.scheme.rc_conflict_pairs()

    def survivors(self, members, adopt_orphans: bool) -> "SurvivorView":
        """This layout after a shrink left only ``members`` (launch-time
        ranks, indexed by current world rank)."""
        return SurvivorView(self, members, adopt_orphans)

    def describe(self) -> str:
        lines = [f"Layout: {self.total_procs} processes over "
                 f"{len(self.assignments)} grids"]
        for a in self.assignments:
            lines.append(f"  grid {a.gid:2d} {a.role:9s} {a.index} -> ranks "
                         f"{a.ranks[0]}..{a.ranks[-1]} ({a.n_procs})")
        return "\n".join(lines)


class SurvivorView:
    """A layout re-expressed in *survivor* world numbering after a shrink.

    The shrink-in-place recovery mode never replaces dead processes: the
    world contracts and every surviving rank gets a new, smaller world rank
    (original relative order preserved).  This view wraps the base
    :class:`Layout` plus the list of original world ranks that survived
    (indexed by current world rank) and answers the same queries in the new
    numbering: a grid that lost members shrinks, a grid that lost everyone
    becomes empty (``n_procs == 0``).

    With ``adopt_orphans=True``, a grid that lost every member is instead
    *adopted*: a donor rank is taken from a surviving group (preferring
    groups with no losses, then the largest, then the lowest gid; never a
    group's sole member, and — soft preference — never a group whose RC
    replica/resample partner is already damaged) and reassigned to the
    orphan grid, so the lost grid's work migrates onto a survivor that can
    restore it through the recovery technique.  The choice is a pure
    function of ``(base, members)``, so every rank computes the same
    adoption.  ``adoptions`` maps orphan gid -> the donor's original gid
    (the donor's old group contracted and needs restoration too).
    """

    def __init__(self, base, members, adopt_orphans: bool = False):
        self.base = base
        self.scheme = base.scheme
        self.members: Tuple[int, ...] = tuple(members)
        self.total_procs = len(self.members)
        groups: Dict[int, List[int]] = {a.gid: [] for a in base.assignments}
        for r, m in enumerate(self.members):
            groups[base.gid_of(m)].append(r)
        self.adoptions: Dict[int, int] = {}
        if adopt_orphans:
            self._adopt_orphans(base, groups)
        self._rank_to_gid = [0] * self.total_procs
        for g, ranks in groups.items():
            for r in ranks:
                self._rank_to_gid[r] = g
        self.assignments = tuple(
            GridAssignment(a.gid, a.index, a.role, tuple(sorted(groups[a.gid])))
            for a in base.assignments)

    def _adopt_orphans(self, base, groups: Dict[int, List[int]]) -> None:
        base_sizes = {a.gid: len(base.group_ranks(a.gid))
                      for a in base.assignments}
        conflict: Dict[int, set] = {}
        for x, y in self.scheme.rc_conflict_pairs():
            conflict.setdefault(x, set()).add(y)
            conflict.setdefault(y, set()).add(x)
        for a in base.assignments:  # gid order: deterministic everywhere
            if groups[a.gid]:
                continue
            # an orphan adopted earlier in this loop is back to its base
            # size but still has to be refilled, like its donor's group
            damaged = {g for g, rs in groups.items()
                       if len(rs) < base_sizes[g]} | set(self.adoptions)
            cands = [g for g, rs in groups.items() if len(rs) >= 2]
            safe = [g for g in cands if not (conflict.get(g, set()) & damaged)]
            pool = safe or cands  # conflicting donor beats no donor: the
            # technique's own loss validation reports the real constraint
            if not pool:
                raise RuntimeError(
                    f"shrink-in-place cannot re-balance: grid {a.gid} lost "
                    f"every member and no surviving grid can spare a donor "
                    f"process (all groups are down to one member)")
            pool.sort(key=lambda g: (len(groups[g]) < base_sizes[g],
                                     -len(groups[g]), g))
            donor_gid = pool[0]
            groups[a.gid].append(groups[donor_gid].pop())
            self.adoptions[a.gid] = donor_gid

    # same query surface as Layout ------------------------------------
    def gid_of(self, rank: int) -> int:
        return self._rank_to_gid[rank]

    def assignment(self, gid: int) -> GridAssignment:
        return self.assignments[gid]

    def root_rank(self, gid: int) -> int:
        a = self.assignments[gid]
        if not a.ranks:
            raise ValueError(
                f"grid {gid} has no surviving processes after shrink")
        return a.ranks[0]

    def group_ranks(self, gid: int) -> Tuple[int, ...]:
        return self.assignments[gid].ranks

    def grids_of_ranks(self, ranks) -> List[int]:
        return sorted({self.gid_of(r) for r in ranks})

    def conflict_pairs_ranks(self) -> List[Tuple[int, int]]:
        return self.scheme.rc_conflict_pairs()

    def describe(self) -> str:
        lines = [f"SurvivorView: {self.total_procs} survivors over "
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
