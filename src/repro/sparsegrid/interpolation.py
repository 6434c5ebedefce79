"""Resampling between anisotropic nodal grids.

All grids are nodal tensor grids on [0,1]^2 with ``2^i + 1`` points per
axis, so a coarser grid's nodes are a strict subset of any finer grid's
nodes.  Restriction is therefore exact stride sampling, and prolongation
by one level copies the nodes and puts the mean of its two neighbours on
every new midpoint; ``k`` such steps are bilinear interpolation across
``k`` levels.  Nothing is precomputed or cached: both directions are
slices of the data itself.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

GridIx = Tuple[int, int]


def axis_points(level: int) -> np.ndarray:
    n = 1 << level
    return np.arange(n + 1) / n


def nodal_shape(ix: GridIx) -> Tuple[int, int]:
    return (1 << ix[0]) + 1, (1 << ix[1]) + 1


def restrict(values: np.ndarray, from_ix: GridIx, to_ix: GridIx) -> np.ndarray:
    """Stride-sample every axis of ``values`` that is finer than ``to_ix``.

    Returns a *view*; axes already at or below their target level are left
    alone.  Raises ``ValueError`` when ``values`` is not on grid ``from_ix``.
    """
    if values.shape != nodal_shape(from_ix):
        raise ValueError(
            f"values shape {values.shape} does not match index {from_ix}")
    sx, sy = (1 << max(f - t, 0) for f, t in zip(from_ix, to_ix))
    return values[::sx, ::sy]


def prolong(a: np.ndarray, axis: int, levels: int) -> np.ndarray:
    """``a`` made ``levels`` dyadic levels finer along ``axis``: per level,
    old nodes carry over and each new midpoint is the mean of its two
    neighbours.  ``levels <= 0`` returns ``a`` itself; otherwise the
    result is a fresh C-ordered array."""
    for _ in range(levels):
        shape = list(a.shape)
        shape[axis] = 2 * shape[axis] - 1
        out = np.empty(shape, dtype=a.dtype)
        src, dst = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
        dst[::2] = src
        mid = dst[1::2]
        np.add(src[:-1], src[1:], out=mid)
        mid *= 0.5
        a = out
    return a


def resample(values: np.ndarray, from_ix: GridIx, to_ix: GridIx) -> np.ndarray:
    """Nodal values on grid ``from_ix`` resampled onto grid ``to_ix``.

    Exact (pure sampling) when ``to_ix <= from_ix`` component-wise; bilinear
    otherwise.  This single routine implements both the RC technique's
    restriction ("resampling a lower-resolution lost grid from the finer
    grid above it") and the sampling of the combined solution the AC
    technique scatters.  Always returns an array the caller owns.
    """
    out = restrict(values, from_ix, to_ix)
    for axis in (0, 1):
        out = prolong(out, axis, to_ix[axis] - from_ix[axis])
    return out if out.flags.owndata else out.copy()


def nodal_of(fn, ix: GridIx) -> np.ndarray:
    """Sample a function f(x, y) on the nodal grid ``ix``."""
    xs = axis_points(ix[0])
    ys = axis_points(ix[1])
    return fn(xs[:, None], ys[None, :])
