"""Serial reference pipeline: the same solve -> lose -> recover -> combine
experiment with no simulated MPI at all.

Used to cross-validate the distributed application (their results must
agree to rounding) and for fast accuracy studies.  The recovery semantics
mirror :mod:`repro.core.app`:

* CR — lost grids are recomputed exactly (deterministic solver: identical
  data), so the result equals the failure-free combination;
* RC — a lost diagonal/duplicate is copied from its replica (identical
  data), a lost lower grid is *resampled* from the finer diagonal above;
* AC — new combination coefficients over the survivors; lost grids receive
  a sample of the combined solution afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..ft.recovery import technique_by_code
from ..pde.advection import AdvectionProblem
from ..pde.lax_wendroff import SerialAdvectionSolver
from ..pde.norms import l1, l2, linf
from ..sparsegrid.combine import combine_nodal
from ..sparsegrid.interpolation import axis_points, resample

GridIx = Tuple[int, int]


@dataclass
class SerialResult:
    technique: str
    n: int
    level: int
    steps: int
    dt: float
    lost_gids: Tuple[int, ...]
    error_l1: float
    error_l2: float
    error_linf: float
    coefficients: Dict[GridIx, float]
    combined: Optional[np.ndarray] = None


def solve_scheme_grids(scheme, problem: AdvectionProblem, steps: int,
                       dt: float) -> Dict[int, np.ndarray]:
    """Solve every scheme grid serially; returns gid -> nodal values.

    Duplicates share the index of their original but are solved once and
    shared (they are exact replicas by construction).
    """
    by_index: Dict[GridIx, np.ndarray] = {}
    out: Dict[int, np.ndarray] = {}
    for g in scheme.grids:
        if g.index not in by_index:
            solver = SerialAdvectionSolver(problem, g.level_x, g.level_y, dt)
            solver.step(steps)
            by_index[g.index] = solver.nodal()
        out[g.gid] = by_index[g.index]
    return out


def run_serial(*, n: int = 7, level: int = 4, technique_code: str = "AC",
               steps: int = 32, lost_gids: Iterable[int] = (),
               problem: Optional[AdvectionProblem] = None, cfl: float = 0.4,
               extra_layers: int = 2,
               target: Optional[GridIx] = None,
               collect_arrays: bool = False) -> SerialResult:
    """One full serial experiment; mirrors :func:`repro.core.run_app`."""
    problem = problem or AdvectionProblem()
    technique = technique_by_code(technique_code, extra_layers)
    scheme = technique.make_scheme(n, level)
    lost = sorted(set(lost_gids))
    dt = problem.stable_dt(n, cfl)
    target = target or (n, n)

    data = solve_scheme_grids(scheme, problem, steps, dt)

    # --- recovery ---------------------------------------------------------
    if technique.code == "CR":
        pass  # recompute reproduces the lost data exactly
    elif technique.code == "RC":
        plan = technique.recovery_plan(scheme, lost)
        for dst_gid, src_gid in plan:
            src = scheme[src_gid]
            dst = scheme[dst_gid]
            data[dst_gid] = resample(data[src_gid], src.index, dst.index)
    # AC: nothing to restore before combination

    # --- combination -------------------------------------------------------
    coeffs = technique.combination_coefficients(scheme, lost)
    holders: Dict[GridIx, int] = {}
    for g in scheme.grids:
        if coeffs.get(g.index, 0.0) == 0.0:
            continue
        if technique.code == "AC" and g.gid in lost:
            continue  # data gone; a surviving copy must supply the index
        current = holders.get(g.index)
        if current is None or (current in lost and g.gid not in lost):
            holders[g.index] = g.gid  # prefer a pristine (non-lost) copy
    parts = {ix: data[gid] for ix, gid in holders.items()}
    combined = combine_nodal(parts, coeffs, target)

    # --- error --------------------------------------------------------------
    xs = axis_points(target[0])
    ys = axis_points(target[1])
    d = combined - problem.exact(xs, ys, steps * dt)
    return SerialResult(
        technique=technique.code, n=n, level=level, steps=steps, dt=dt,
        lost_gids=tuple(lost), error_l1=l1(d), error_l2=l2(d),
        error_linf=linf(d), coefficients=dict(coeffs),
        combined=combined if collect_arrays else None)
