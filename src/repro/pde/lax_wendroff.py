"""Vectorised 2D Lax–Wendroff stepper for constant-coefficient advection.

The scheme is second order in space and time:

.. math::

    u^{n+1} = u - \\tfrac{c_x}{2}\\delta_x u - \\tfrac{c_y}{2}\\delta_y u
            + \\tfrac{c_x^2}{2}\\delta_x^2 u + \\tfrac{c_y^2}{2}\\delta_y^2 u
            + \\tfrac{c_x c_y}{4}\\delta_{xy} u

with Courant numbers :math:`c_x = a\\,\\Delta t/\\Delta x`,
:math:`c_y = b\\,\\Delta t/\\Delta y` (:math:`\\delta` a central
difference, :math:`\\delta^2` a second difference, :math:`\\delta_{xy}` the
difference of the four corners).  There is one stencil kernel,
:func:`lw_step_interior_into`; it evaluates the formula collected per
stencil point,

.. math::

    u^{n+1}_{ij} = c_0 u_{ij} + c_{x+} u_{i+1,j} + c_{x-} u_{i-1,j}
                 + c_{y+} u_{i,j+1} + c_{y-} u_{i,j-1}
                 + \\tfrac{c_x c_y}{4}\\delta_{xy} u, \\qquad
    c_0 = 1 - c_x^2 - c_y^2, \\quad c_{x\\pm} = \\tfrac{c_x}{2}(c_x \\mp 1),

over cache-sized row blocks, and every other entry point (periodic or
halo-padded, allocating or not) is a wrapper around it, so all solvers
share one arithmetic.  Periodic arrays are stored *without*
the duplicated right/top boundary (shape ``2^i × 2^j``); ``nodal_view``
re-attaches it for the combination technique, whose nodal grids are
``(2^i+1) × (2^j+1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: flop estimate per grid point per step, used by the virtual-time model
FLOPS_PER_POINT = 24.0


def periodic_from_initial(problem, level_x: int, level_y: int) -> np.ndarray:
    """Initial condition as a periodic array of shape ``(2^i, 2^j)``."""
    nx, ny = 1 << level_x, 1 << level_y
    xs = np.arange(nx) / nx
    ys = np.arange(ny) / ny
    return problem.initial(xs[:, None], ys[None, :])


def nodal_view(u: np.ndarray) -> np.ndarray:
    """Append the wrapped boundary: ``(nx, ny)`` -> ``(nx+1, ny+1)``."""
    out = np.empty((u.shape[0] + 1, u.shape[1] + 1), dtype=u.dtype)
    out[:-1, :-1] = u
    out[-1, :-1] = u[0, :]
    out[:-1, -1] = u[:, 0]
    out[-1, -1] = u[0, 0]
    return out


def periodic_from_nodal(nodal: np.ndarray) -> np.ndarray:
    """Inverse of :func:`nodal_view` (drops the duplicated boundary)."""
    return np.ascontiguousarray(nodal[:-1, :-1])


def courant_numbers(velocity: Tuple[float, float], level_x: int, level_y: int,
                    dt: float) -> Tuple[float, float]:
    a, b = velocity
    return a * dt * (1 << level_x), b * dt * (1 << level_y)


#: grid points per kernel block: the padded input rows, the output rows and
#: the scratch rows of one block (3 x 128 KiB of float64) stay cache-resident
#: across the kernel's 14 passes instead of streaming the whole slab each time
_BLOCK_POINTS = 1 << 14


def fill_periodic_halo(u: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Copy ``u`` into the interior of the ``(nx+2, ny+2)`` buffer ``work``
    and fill the ghost layer (corners included) by periodic wrap-around."""
    work[1:-1, 1:-1] = u
    work[0, 1:-1] = u[-1, :]
    work[-1, 1:-1] = u[0, :]
    work[:, 0] = work[:, -2]
    work[:, -1] = work[:, 1]
    return work


def _lw_block(w: np.ndarray, coeffs, out: np.ndarray, t: np.ndarray) -> None:
    """The 9-coefficient stencil on one halo-padded block, into ``out``."""
    c0, c_xp, c_xm, c_yp, c_ym, c_xy = coeffs
    np.multiply(w[1:-1, 1:-1], c0, out=out)
    np.multiply(w[2:, 1:-1], c_xp, out=t)
    out += t
    np.multiply(w[:-2, 1:-1], c_xm, out=t)
    out += t
    np.multiply(w[1:-1, 2:], c_yp, out=t)
    out += t
    np.multiply(w[1:-1, :-2], c_ym, out=t)
    out += t
    np.subtract(w[2:, 2:], w[2:, :-2], out=t)
    t -= w[:-2, 2:]
    t += w[:-2, :-2]
    t *= c_xy
    out += t


def lw_step_interior_into(w: np.ndarray, cx: float, cy: float,
                          out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """One step on the interior of a halo-padded block ``w``, into ``out``.

    ``w`` has one ghost layer on every side (already exchanged); ``out``
    and ``scratch`` have the interior shape ``w.shape - 2`` and are
    overwritten; ``out`` is returned.  Neither may overlap ``w`` (``out``
    *may* alias the array the caller copied into ``w``).  Allocates
    nothing.  The stencil is purely pointwise in ``w``, so the row
    blocking cannot change a single bit of the result.
    """
    coeffs = (1.0 - cx * cx - cy * cy,
              0.5 * cx * (cx - 1.0), 0.5 * cx * (cx + 1.0),
              0.5 * cy * (cy - 1.0), 0.5 * cy * (cy + 1.0),
              0.25 * cx * cy)
    n, ny = out.shape
    rows = max(1, _BLOCK_POINTS // ny)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        _lw_block(w[lo:hi + 2], coeffs, out[lo:hi], scratch[:hi - lo])
    return out


def lw_step_periodic_into(u: np.ndarray, cx: float, cy: float,
                          out: np.ndarray, work: np.ndarray,
                          scratch: np.ndarray) -> np.ndarray:
    """One step on a fully periodic array ``u``, into ``out``.

    ``work`` is a ``(nx+2, ny+2)`` halo buffer; ``out`` and ``scratch``
    have the shape of ``u``.  ``out`` may alias ``u`` (the state is staged
    through ``work`` before ``out`` is written).  Allocates nothing.
    """
    fill_periodic_halo(u, work)
    return lw_step_interior_into(work, cx, cy, out, scratch)


def lw_step_interior(w: np.ndarray, cx: float, cy: float) -> np.ndarray:
    """:func:`lw_step_interior_into` with freshly allocated buffers."""
    out = np.empty((w.shape[0] - 2, w.shape[1] - 2), dtype=w.dtype)
    return lw_step_interior_into(w, cx, cy, out, np.empty_like(out))


def lw_step_periodic(u: np.ndarray, cx: float, cy: float) -> np.ndarray:
    """:func:`lw_step_periodic_into` with freshly allocated buffers."""
    work = np.empty((u.shape[0] + 2, u.shape[1] + 2), dtype=u.dtype)
    return lw_step_periodic_into(u, cx, cy, np.empty_like(u), work,
                                 np.empty_like(u))


@dataclass
class SerialAdvectionSolver:
    """Single-process reference solver on one anisotropic sub-grid.

    Despite the historical name this solver is problem-generic: it drives
    whatever ``step_periodic`` kernel the problem object provides
    (Lax–Wendroff advection, FTCS diffusion, ...).
    """

    problem: object
    level_x: int
    level_y: int
    dt: float

    def __post_init__(self):
        self.u = periodic_from_initial(self.problem, self.level_x, self.level_y)
        self.step_count = 0
        nx, ny = self.u.shape
        # persistent buffers: the step allocates nothing
        self._buf_a = np.empty_like(self.u)
        self._buf_b = np.empty_like(self.u)
        self._work = np.empty((nx + 2, ny + 2), dtype=self.u.dtype)
        self._scratch = np.empty_like(self.u)

    @property
    def time(self) -> float:
        return self.step_count * self.dt

    def step(self, n: int = 1) -> None:
        for _ in range(n):
            # double buffer: write into whichever private buffer the state
            # does not currently occupy (never into a caller-assigned array)
            out = self._buf_b if self.u is self._buf_a else self._buf_a
            self.problem.step_periodic(
                self.u, self.level_x, self.level_y, self.dt,
                out=out, work=self._work, scratch=self._scratch)
            self.u = out
            self.step_count += 1

    def nodal(self) -> np.ndarray:
        return nodal_view(self.u)

    def exact_nodal(self) -> np.ndarray:
        nx, ny = 1 << self.level_x, 1 << self.level_y
        xs = np.arange(nx + 1) / nx
        ys = np.arange(ny + 1) / ny
        return self.problem.exact(xs, ys, self.time)
