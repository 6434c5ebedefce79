"""Domain decomposition of a periodic sub-grid over a process grid.

Each sub-grid's process group is a periodic ``px x py`` grid
(:func:`choose_dims`) and each axis is split into balanced contiguous parts
(:class:`SlabDecomposition`).  The ``"1d"`` choice is the one-row grid along
the axis with the most points: a ring of slabs, whose other axis stays
local, so the Lax–Wendroff corner couplings wrap locally and a halo
exchange needs only two messages per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..mpi.cart import dims_create


@dataclass(frozen=True)
class SlabDecomposition:
    """Balanced contiguous split of ``n_points`` (periodic) into ``n_parts``."""

    n_points: int
    n_parts: int
    axis: int

    def __post_init__(self):
        if self.n_parts < 1:
            raise ValueError("need at least one part")
        if self.n_points < self.n_parts:
            raise ValueError(
                f"cannot split {self.n_points} points into {self.n_parts} slabs")

    def bounds(self, part: int) -> Tuple[int, int]:
        """Half-open [start, stop) owned by ``part``."""
        if not (0 <= part < self.n_parts):
            raise IndexError(f"part {part} out of range")
        base, rem = divmod(self.n_points, self.n_parts)
        start = part * base + min(part, rem)
        stop = start + base + (1 if part < rem else 0)
        return start, stop

    def sizes(self) -> List[int]:
        return [b - a for a, b in (self.bounds(p) for p in range(self.n_parts))]

    def owner_of(self, index: int) -> int:
        base, rem = divmod(self.n_points, self.n_parts)
        big = (base + 1) * rem  # points covered by the rem larger parts
        if index < big:
            return index // (base + 1)
        return rem + (index - big) // base if base else rem

    def neighbours(self, part: int) -> Tuple[int, int]:
        """(previous, next) part in the periodic direction."""
        return ((part - 1) % self.n_parts, (part + 1) % self.n_parts)


def choose_dims(n_procs: int, level_x: int, level_y: int,
                decomposition: str) -> Tuple[int, int]:
    """Process-grid shape ``(px, py)`` of a ``"1d"`` or ``"2d"`` decomposition.

    ``"1d"``: all processes along the axis with more points (ties -> x).
    ``"2d"``: balanced factors, the larger along the larger grid axis,
    clipped so no axis is over-decomposed."""
    if decomposition == "1d":
        return (n_procs, 1) if level_x >= level_y else (1, n_procs)
    if decomposition != "2d":
        raise ValueError(f"unknown decomposition {decomposition!r}")
    px, py = dims_create(n_procs, 2)
    if (level_x >= level_y) != (px >= py):
        px, py = py, px
    # never split an axis into more parts than it has points
    nx, ny = 1 << level_x, 1 << level_y
    while px > nx:
        if px % 2:
            raise ValueError(f"cannot fit {n_procs} procs on grid "
                             f"({level_x},{level_y})")
        px //= 2
        py *= 2
    while py > ny:
        if py % 2:
            raise ValueError(f"cannot fit {n_procs} procs on grid "
                             f"({level_x},{level_y})")
        py //= 2
        px *= 2
    return px, py


def rebalance(decomp: SlabDecomposition, n_parts: int) -> SlabDecomposition:
    """The same domain re-split over a different part count.

    The shrink-in-place recovery mode re-decomposes a grid over its
    surviving processes; the balanced contiguous rule is what makes the
    result independent of *which* ranks died."""
    return SlabDecomposition(decomp.n_points, n_parts, decomp.axis)


def migration_plan(old: SlabDecomposition,
                   new: SlabDecomposition) -> List[List[Tuple[int, int, int]]]:
    """Which old slabs each new part must read to assemble its slab.

    Returns, for each new part, the list of ``(old_part, start, stop)``
    half-open global index intervals covering the new part's bounds, in
    ascending order.  Used by the shrink-in-place checkpoint restore: each
    surviving rank reads exactly the overlapping regions of the old ranks'
    checkpoints, so the migration is fully distributed.
    """
    if old.n_points != new.n_points or old.axis != new.axis:
        raise ValueError(
            f"cannot migrate between decompositions of different domains "
            f"({old.n_points}@axis{old.axis} vs {new.n_points}@axis{new.axis})")
    plan: List[List[Tuple[int, int, int]]] = []
    for p in range(new.n_parts):
        lo, hi = new.bounds(p)
        pieces: List[Tuple[int, int, int]] = []
        for q in range(old.owner_of(lo), old.owner_of(hi - 1) + 1):
            a, b = old.bounds(q)
            s, e = max(a, lo), min(b, hi)
            if s < e:
                pieces.append((q, s, e))
        plan.append(pieces)
    return plan
