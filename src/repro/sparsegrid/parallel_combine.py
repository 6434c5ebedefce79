"""Gather–scatter parallel combination over simulated MPI.

The paper: "The solutions are combined in parallel using a gather-scatter
approach."  Every sub-grid's group root gathers its grid, all roots (and
idle ranks, contributing nothing) join a collective gather to the global
root, the root combines with the given coefficients, and — when recovery
needs it — samples of the combined solution are scattered back.

The root-side combination is :func:`.combine.combine_nodal` (level by
level, nothing cached between runs), and the scattered samples are
:func:`.interpolation.resample` of the combined array.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .combine import combine_nodal
from .interpolation import resample

GridIx = Tuple[int, int]


async def combine_on_root(world, my_parts: Dict[GridIx, np.ndarray],
                          coeffs: Dict[GridIx, float], target: GridIx,
                          root: int = 0) -> Optional[np.ndarray]:
    """Collective: gather per-rank contributions and combine on ``root``.

    ``my_parts`` holds the sub-grid nodal arrays this rank contributes
    (group roots contribute their grid; everyone else passes ``{}``).
    Returns the combined array on ``root``, None elsewhere.  If several
    ranks contribute the same index (duplicated grids), the first by rank
    wins — they are replicas of the same data.
    """
    gathered = await world.gather(my_parts, root=root)
    if gathered is None:
        return None
    merged: Dict[GridIx, np.ndarray] = {}
    for contrib in gathered:
        if not contrib:
            continue
        for ix, arr in contrib.items():
            merged.setdefault(ix, arr)
    return combine_nodal(merged, coeffs, target)


async def scatter_samples(world, combined: Optional[np.ndarray],
                          target: GridIx,
                          wanted: Dict[int, GridIx],
                          root: int = 0) -> Optional[np.ndarray]:
    """Send each requesting rank a sample of the combined solution.

    ``wanted`` maps world rank -> grid index it needs (the AC technique's
    "a sample of the combined solution is used as recovered data").
    Returns this rank's sample (or None).
    """
    if world.rank == root:
        payload = [None] * world.size
        for rank, ix in wanted.items():
            payload[rank] = resample(combined, target, ix)
    else:
        payload = None
    return await world.scatter(payload, root=root)
