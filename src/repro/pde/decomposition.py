"""Domain decomposition of a periodic sub-grid over a process grid.

Each sub-grid's process group is a periodic ``px x py`` grid
(:func:`choose_dims`, over the ``MPI_Dims_create`` factorisation
:func:`dims_create`) and each axis is split into balanced contiguous parts
(:class:`SlabDecomposition`), which give each rank its block
(:func:`block_bounds`).  The ``"1d"`` choice is the one-row grid along
the axis with the most points: a ring of slabs, whose other axis stays
local, so the Lax–Wendroff corner couplings wrap locally and a halo
exchange needs only two messages per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


def _part_bounds(n_points: int, n_parts: int, part: int) -> Tuple[int, int]:
    base, rem = divmod(n_points, n_parts)
    start = part * base + min(part, rem)
    return start, start + base + (1 if part < rem else 0)


@dataclass(frozen=True)
class SlabDecomposition:
    """Balanced contiguous split of ``n_points`` (periodic) into ``n_parts``."""

    n_points: int
    n_parts: int

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
        return _part_bounds(self.n_points, self.n_parts, part)

    def sizes(self) -> List[int]:
        return [b - a for a, b in (self.bounds(p) for p in range(self.n_parts))]

    def neighbours(self, part: int) -> Tuple[int, int]:
        """(previous, next) part in the periodic direction."""
        return ((part - 1) % self.n_parts, (part + 1) % self.n_parts)


def dims_create(nnodes: int, ndims: int,
                dims: Optional[Sequence[int]] = None) -> List[int]:
    """``MPI_Dims_create``: balanced factorisation of ``nnodes``.

    Fixed (non-zero) entries of ``dims`` are honoured; zero entries are
    filled so the product equals ``nnodes``, as square as possible (larger
    factors first).
    """
    dims = list(dims) if dims is not None else [0] * ndims
    if len(dims) != ndims:
        raise ValueError("dims length must equal ndims")
    fixed = 1
    free_positions = []
    for i, d in enumerate(dims):
        if d < 0:
            raise ValueError("dims entries must be >= 0")
        if d:
            fixed *= d
        else:
            free_positions.append(i)
    if fixed == 0 or nnodes % fixed:
        raise ValueError(f"cannot factor {nnodes} over fixed dims {dims}")
    remaining = nnodes // fixed
    if not free_positions:
        if remaining != 1:
            raise ValueError(f"fixed dims {dims} do not cover {nnodes}")
        return dims

    # factorise `remaining` into len(free_positions) near-equal factors
    k = len(free_positions)
    factors = [1] * k
    # repeatedly peel the largest prime factor onto the smallest slot
    n = remaining
    primes = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            primes.append(p)
            n //= p
        p += 1
    if n > 1:
        primes.append(n)
    for prime in sorted(primes, reverse=True):
        slot = min(range(k), key=lambda i: factors[i])
        factors[slot] *= prime
    factors.sort(reverse=True)
    for pos, f in zip(free_positions, factors):
        dims[pos] = f
    return dims


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


def block_bounds(shape: Tuple[int, int], dims: Tuple[int, int],
                 rank: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Half-open ``((x0, x1), (y0, y1))`` of ``rank``'s block of a ``shape``
    array over the row-major process grid ``dims`` (each axis split as
    :class:`SlabDecomposition` splits it).

    The balanced contiguous split depends only on ``dims``, so a grid
    re-decomposed over its survivors knows every old and new block without
    asking which ranks died."""
    cx, cy = divmod(rank, dims[1])
    return (_part_bounds(shape[0], dims[0], cx),
            _part_bounds(shape[1], dims[1], cy))
