"""Alternate-combination coefficients after grid loss (the paper's [15]).

When sub-grids are lost, the Alternate Combination technique assigns *new*
coefficients to all surviving sub-grids — including the extra coarse layers
— so that the combination remains a valid sparse-grid interpolant over the
surviving index downset.

The algorithm:

1. take the surviving indices (scheme bands minus lost grids),
2. compute Möbius coefficients on the downset they generate (truncated at
   the scheme floor ``n - l + 1`` ... relaxed layer-by-layer for extra
   layers),
3. if some non-zero coefficient lands on an index that did *not* survive
   (possible when more adjacent grids are lost than extra layers can
   cover), greedily drop the coarsest offending maximal grid and repeat.

Step 3 is a deterministic greedy solution of the General Coefficient
Problem; with the paper's two extra layers it never triggers for up to two
*adjacent* diagonal losses, and the tests cover the fallback explicitly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .coefficients import (coefficient_support_ok, maximal_elements, meet,
                           truncated_coefficients)

GridIx = Tuple[int, int]


class RecoveryInfeasibleError(RuntimeError):
    """No consistent combination exists over the surviving grids."""


def alternate_coefficients(available: Iterable[GridIx], floor: GridIx
                           ) -> Dict[GridIx, float]:
    """New combination coefficients over the surviving grid indices.

    ``floor`` is the truncation corner of the scheme's index region: for the
    paper's arrangement with ``extra_layers`` layers, indices never go below
    ``n - l + 1 - 0`` in each axis on the diagonal band, but extra layers
    keep ``i, j >= n - l + 1`` as well, so the floor is simply
    ``(n - l + 1, n - l + 1)`` reduced by nothing.  Pass the smallest
    component values present in the scheme.
    """
    avail: Set[GridIx] = set(available)
    if not avail:
        raise RecoveryInfeasibleError("no surviving grids")
    work = set(avail)
    while work:
        coeffs = truncated_coefficients(work, floor)
        live = {k: c for k, c in coeffs.items() if c}
        if coefficient_support_ok(live, work):
            return live
        # find offending indices: non-zero coefficient but not survived
        offending = sorted(k for k in live if k not in work)
        # each offender is the meet of adjacent maxima; drop the maximal
        # grid of the *smallest total level* adjacent to the first offender
        maxima = maximal_elements(work)
        off = offending[0]
        candidates = []
        for a, b in zip(maxima, maxima[1:]):
            if meet(a, b) == off:
                candidates.extend([a, b])
        if not candidates:
            # offender not a meet of adjacent maxima (degenerate); drop the
            # coarsest maximal grid overall
            candidates = maxima
        drop = min(candidates, key=lambda p: (p[0] + p[1], p[0]))
        work.discard(drop)
        if not work:
            raise RecoveryInfeasibleError(
                "greedy GCP discarded every grid; recovery impossible")
    raise RecoveryInfeasibleError("unreachable")  # pragma: no cover


def survivors(scheme, lost_gids: Iterable[int]) -> List[GridIx]:
    """Indices of scheme grids that still hold data (duplicates collapse to
    one index: the index survives if *any* copy survives)."""
    lost = set(lost_gids)
    out: Set[GridIx] = set()
    for g in scheme.grids:
        if g.gid not in lost:
            out.add(g.index)
    return sorted(out)


def scheme_floor(scheme) -> GridIx:
    """The truncation corner of the scheme's index region."""
    min_x = min(g.index[0] for g in scheme.grids)
    min_y = min(g.index[1] for g in scheme.grids)
    return (min_x, min_y)


def alternate_coefficients_for(scheme, lost_gids: Iterable[int]
                               ) -> Dict[GridIx, float]:
    """Convenience wrapper: new coefficients for a scheme after losses."""
    return alternate_coefficients(survivors(scheme, lost_gids),
                                  scheme_floor(scheme))


@lru_cache(maxsize=1024)
def combination_coefficients(scheme, lost: FrozenSet[int]
                             ) -> Dict[GridIx, float]:
    """Coefficients (by grid index) of the combination without the grids
    ``lost``: Eq. 1's when nothing is lost, else the alternate ones.  One
    shared, read-only result per ``(scheme, lost)`` (schemes are shared
    :func:`cached_scheme` instances): a run solves each loss set once."""
    if not lost:
        return {scheme[gid].index: c
                for gid, c in scheme.classic_coefficients().items()}
    return alternate_coefficients_for(scheme, lost)
