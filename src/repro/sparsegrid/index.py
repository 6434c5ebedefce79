"""Combination scheme index sets: the paper's Fig. 1 grid arrangement.

For full grid size ``n`` and level ``l``, the classic combination (Eq. 1) is

.. math::

    u^s_{n,l} = \\sum_{i+j=2n-l+1,\\; i,j\\le n} u_{i,j}
              - \\sum_{i+j=2n-l,\\; i,j\\le n-1} u_{i,j}

The first sum runs over the *diagonal* sub-grids (layer 0), the second over
the *lower diagonal* (layer 1).  Fault-tolerant variants add:

* **duplicates** of every diagonal grid (IDs 7–10 in Fig. 1) — used by the
  Resampling-and-Copying technique;
* **extra layers** 2 and 3 below the lower diagonal (IDs 11–13) — used by
  the Alternate Combination technique.

Generalising Fig. 1: layer ``k`` holds the indices ``i + j = 2n - l + 1 - k``
with ``i, j <= n - k``, giving ``l - k`` grids (4/3/2/1 for ``l = 4``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

GridIx = Tuple[int, int]

ROLE_DIAGONAL = "diagonal"
ROLE_LOWER = "lower"
ROLE_DUPLICATE = "duplicate"
ROLE_EXTRA = "extra"


@dataclass(frozen=True)
class SchemeGrid:
    """One sub-grid slot in the scheme (duplicates share an index, not a gid)."""

    gid: int
    index: GridIx
    role: str
    layer: int
    coeff: float              #: classic combination coefficient (0 for spares)
    partner: Optional[int]    #: duplicate <-> original gid link

    @property
    def level_x(self) -> int:
        return self.index[0]

    @property
    def level_y(self) -> int:
        return self.index[1]

    @property
    def points(self) -> int:
        """Nodal points (the paper's (2^i+1) x (2^j+1))."""
        return ((1 << self.index[0]) + 1) * ((1 << self.index[1]) + 1)


def layer_indices(n: int, level: int, k: int) -> List[GridIx]:
    """Indices of layer ``k`` (0 = diagonal).  Empty when k >= level."""
    return [(i, 2 * n - level + 1 - k - i)
            for i in range(n - level + 1, n - k + 1)]


class CombinationScheme:
    """The full grid arrangement for one run configuration.

    ``duplicates=True`` mirrors every diagonal grid (RC technique);
    ``extra_layers=m`` adds layers 2 .. m+1 (AC technique, paper uses 2).
    """

    def __init__(self, n: int, level: int, *, duplicates: bool = False,
                 extra_layers: int = 0):
        if level < 2:
            raise ValueError("combination level must be >= 2")
        if n < level:
            raise ValueError(f"full grid size n={n} must be >= level l={level}")
        if extra_layers > level - 2:
            raise ValueError(
                f"at most {level - 2} extra layers exist for level {level}")
        self.n = n
        self.level = level
        self.duplicates = duplicates
        self.extra_layers = extra_layers

        grids: List[SchemeGrid] = []
        gid = 0
        for ix in layer_indices(n, level, 0):
            grids.append(SchemeGrid(gid, ix, ROLE_DIAGONAL, 0, +1.0, None))
            gid += 1
        for ix in layer_indices(n, level, 1):
            grids.append(SchemeGrid(gid, ix, ROLE_LOWER, 1, -1.0, None))
            gid += 1
        if duplicates:
            for d in [g for g in grids if g.role == ROLE_DIAGONAL]:
                grids.append(SchemeGrid(gid, d.index, ROLE_DUPLICATE, 0, 0.0,
                                        d.gid))
                # link the original to its duplicate
                grids[d.gid] = SchemeGrid(d.gid, d.index, d.role, d.layer,
                                          d.coeff, gid)
                gid += 1
        for k in range(2, 2 + extra_layers):
            for ix in layer_indices(n, level, k):
                grids.append(SchemeGrid(gid, ix, ROLE_EXTRA, k, 0.0, None))
                gid += 1
        self.grids: Tuple[SchemeGrid, ...] = tuple(grids)
        self._by_gid: Dict[int, SchemeGrid] = {g.gid: g for g in grids}
        #: each role's grids, in gid order
        self.diagonal, self.lower, self.duplicates_list, self.extra = (
            tuple(g for g in grids if g.role == role) for role in
            (ROLE_DIAGONAL, ROLE_LOWER, ROLE_DUPLICATE, ROLE_EXTRA))
        # the RC relations, built once: diagonal and duplicate copy from
        # each other, lower grid ``m`` resamples from diagonal ``m+1``
        above = {g.gid: d.gid for g, d in zip(self.lower, self.diagonal[1:])}
        self._resample_source: Dict[int, Optional[int]] = {
            g.gid: g.partner if g.role in (ROLE_DIAGONAL, ROLE_DUPLICATE)
            else above.get(g.gid) for g in grids}
        self._rc_pairs: Tuple[Tuple[int, int], ...] = tuple(sorted(
            {tuple(sorted(pair)) for pair in self._resample_source.items()
             if pair[1] is not None}))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.grids)

    def __iter__(self):
        return iter(self.grids)

    def __getitem__(self, gid: int) -> SchemeGrid:
        return self._by_gid[gid]

    def classic_coefficients(self) -> Dict[int, float]:
        """gid -> coefficient of the failure-free combination (Eq. 1)."""
        return {g.gid: g.coeff for g in self.grids if g.coeff != 0.0}

    def resample_source(self, gid: int) -> Optional[int]:
        """RC technique source grid for a lost grid ``gid``.

        Diagonal <-> duplicate pairs copy exactly; a lower grid ``m`` is
        resampled from diagonal ``m+1`` (the finer grid directly above it,
        the paper's "4 from 1, 5 from 2, 6 from 3" pairing).  Returns None
        when the scheme has no duplicates or no source exists.
        """
        return self._resample_source[gid]

    def rc_conflict_pairs(self) -> List[Tuple[int, int]]:
        """Grid pairs that must not fail simultaneously under RC (Sec. III:
        "not ... on sub-grids 3 and 6, or 2 and 5, ... or 0 and 7, ...")."""
        return list(self._rc_pairs)

    def full_index(self) -> GridIx:
        """The isotropic full grid the combination approximates."""
        return (self.n, self.n)

    def describe(self) -> str:
        lines = [f"CombinationScheme(n={self.n}, l={self.level}, "
                 f"duplicates={self.duplicates}, extra_layers={self.extra_layers})"]
        for g in self.grids:
            lines.append(f"  [{g.gid:2d}] {g.role:9s} layer={g.layer} "
                         f"index={g.index} coeff={g.coeff:+.0f}")
        return "\n".join(lines)


@lru_cache(maxsize=None)
def cached_scheme(n: int, level: int, *, duplicates: bool = False,
                  extra_layers: int = 0) -> CombinationScheme:
    """Shared scheme instances — schemes are immutable after construction
    (``grids`` is a tuple of frozen dataclasses), and every layer of a
    sweep rebuilds the same handful of shapes, so the recovery techniques
    construct through this cache.  Sharing instances also lets the layout
    cache key on scheme identity."""
    return CombinationScheme(n, level, duplicates=duplicates,
                             extra_layers=extra_layers)
