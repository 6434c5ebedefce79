"""Serial combination of sub-grid solutions onto a target grid.

The combination is linear and the dyadic grids are nested, so
`combine_nodal` never touches the target once per source grid.  Each
part is scaled by its coefficient on its own small grid; parts that
share a y-level are summed while walking their x-levels upward (the
running sum is prolonged one level, the next part added), and the same
walk over the y-levels carries those row sums to the target.  Every
intermediate array is prolonged exactly once per level it climbs, which
for the classic scheme is about five target-sized passes in total,
whatever the number of grids, with nothing cached between calls.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .interpolation import (axis_points, nodal_of, nodal_shape, prolong,
                            restrict)

GridIx = Tuple[int, int]


def _ascend(terms: Iterable[Tuple[int, np.ndarray]], axis: int,
            top: int) -> np.ndarray:
    """``sum P_{level -> top}(term)`` along ``axis`` over ``(level, term)``
    pairs in ascending level order, Horner-style: the running sum is
    prolonged up to each next term's level, the term added in place, and
    the total prolonged to ``top``.  ``terms`` is consumed lazily, so a
    term need not exist before the walk reaches its level."""
    acc, at = None, top
    for level, term in terms:
        if acc is None:
            acc = term
        else:
            acc = prolong(acc, axis, level - at)
            acc += term
        at = level
    return prolong(acc, axis, top - at)


def combine_nodal(parts: Dict[GridIx, np.ndarray],
                  coeffs: Dict[GridIx, float],
                  target: GridIx) -> np.ndarray:
    """``sum_k c_k P_target(u_k)`` — the sparse grid combination (Eq. 1).

    ``parts`` maps grid index -> nodal values; every index with a non-zero
    coefficient must be present.  Returns a fresh array the caller owns.
    """
    tx, ty = target
    rows: Dict[int, list] = {}      # y-level -> [(x-level, c_k, u_k view)]
    for ix, c in coeffs.items():
        if c == 0.0:
            continue
        if ix not in parts:
            raise KeyError(f"combination needs grid {ix} but it is missing")
        rows.setdefault(min(ix[1], ty), []).append(
            (min(ix[0], tx), c, restrict(parts[ix], ix, target)))
    if not rows:
        raise ValueError("no non-zero coefficients")

    def row_sum(row):
        return _ascend(((lx, c * u) for lx, c, u in
                        sorted(row, key=itemgetter(0))), 0, tx)
    return _ascend(((ly, row_sum(rows[ly])) for ly in sorted(rows)), 1, ty)


def _bilinear_gather(values: np.ndarray, from_ix: GridIx,
                     to_ix: GridIx) -> np.ndarray:
    """``values`` on grid ``from_ix`` evaluated at the nodes of ``to_ix`` by
    the textbook cell-lookup bilinear formula (independent of `prolong`)."""
    if values.shape != nodal_shape(from_ix):
        raise ValueError(
            f"values shape {values.shape} does not match index {from_ix}")

    def cells(from_level, to_level):
        pos = axis_points(to_level) * (1 << from_level)
        lo = np.minimum(pos.astype(np.intp), (1 << from_level) - 1)
        return lo, pos - lo

    (i, wx), (j, wy) = (cells(f, t) for f, t in zip(from_ix, to_ix))
    wx, wy = wx[:, None], wy[None, :]
    return ((1 - wx) * (1 - wy) * values[np.ix_(i, j)] +
            wx * (1 - wy) * values[np.ix_(i + 1, j)] +
            (1 - wx) * wy * values[np.ix_(i, j + 1)] +
            wx * wy * values[np.ix_(i + 1, j + 1)])


def combine_nodal_reference(parts: Dict[GridIx, np.ndarray],
                            coeffs: Dict[GridIx, float],
                            target: GridIx) -> np.ndarray:
    """The one-source-at-a-time combination loop: the oracle `combine_nodal`
    is tested against (see ``tests/sparsegrid/test_combine.py``)."""
    out: Optional[np.ndarray] = None
    for ix, c in coeffs.items():
        if c == 0.0:
            continue
        if ix not in parts:
            raise KeyError(f"combination needs grid {ix} but it is missing")
        term = _bilinear_gather(parts[ix], ix, target)
        out = c * term if out is None else out + c * term
    if out is None:
        raise ValueError("no non-zero coefficients")
    return out


def combination_interpolant(fn, coeffs: Dict[GridIx, float],
                            target: GridIx) -> np.ndarray:
    """Combination of *interpolants of a function* (used by tests: for
    f in the union sparse-grid space the result is exact on target nodes)."""
    parts = {ix: nodal_of(fn, ix) for ix in coeffs}
    return combine_nodal(parts, coeffs, target)
