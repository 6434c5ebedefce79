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
:func:`lw_step_into`; it evaluates the formula collected per stencil
point,

.. math::

    u^{n+1}_{ij} = c_0 u_{ij} + c_{x+} u_{i+1,j} + c_{x-} u_{i-1,j}
                 + c_{y+} u_{i,j+1} + c_{y-} u_{i,j-1}
                 + \\tfrac{c_x c_y}{4}\\delta_{xy} u, \\qquad
    c_0 = 1 - c_x^2 - c_y^2, \\quad c_{x\\pm} = \\tfrac{c_x}{2}(c_x \\mp 1),

in one pass over the halo-padded buffer read as a flat array: with ``s``
the padded row length the eight neighbours sit at flat offsets ``±s``,
``±1`` and ``±s±1``, so each of the 14 operations is a contiguous 1-D
ufunc over a cache-sized block.  Every other entry point (periodic or
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


#: flat points per kernel block: the block's input window, output and
#: scratch (3 x 256 KiB of float64) stay cache-resident across the
#: kernel's 14 passes instead of streaming the whole slab each time
_BLOCK_POINTS = 1 << 15


def wrap_halo(w: np.ndarray) -> np.ndarray:
    """Fill the ghost layer of the padded buffer ``w`` (corners included)
    from its own interior by periodic wrap-around, in place."""
    w[0, 1:-1] = w[-2, 1:-1]
    w[-1, 1:-1] = w[1, 1:-1]
    w[:, 0] = w[:, -2]
    w[:, -1] = w[:, 1]
    return w


def scratch_for(w: np.ndarray) -> np.ndarray:
    """A flat scratch buffer large enough for a kernel pass over ``w``."""
    return np.empty(min(_BLOCK_POINTS, w.size), dtype=w.dtype)


def flat_blocks(w: np.ndarray, out: np.ndarray, scratch: np.ndarray):
    """Check the buffers of a flat pass over ``w`` into ``out`` (flat
    offsets on a view or an overlap would be silently wrong) and return
    both flattened, with the ``(lo, hi)`` blocks of at most
    ``_BLOCK_POINTS`` that tile ``[s + 1, w.size - s - 1)``."""
    if (w.ndim != 2 or out.shape != w.shape or scratch.ndim != 1
            or not (w.flags.c_contiguous and out.flags.c_contiguous)
            or scratch.size < min(_BLOCK_POINTS, w.size)
            or np.may_share_memory(w, out)):
        raise ValueError(f"flat kernel needs separate C-contiguous w/out of "
                         f"one shape: {w.shape}, {out.shape}, {scratch.shape}")
    s, stop = w.shape[1], w.size - w.shape[1] - 1
    return w.reshape(-1), out.reshape(-1), [
        (lo, min(lo + _BLOCK_POINTS, stop))
        for lo in range(s + 1, stop, _BLOCK_POINTS)]


def lw_step_into(w: np.ndarray, cx: float, cy: float,
                 out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """One step of the halo-padded block ``w`` into the interior of the
    padded ``out`` (same shape; ``scratch`` flat, :func:`scratch_for`);
    returns ``out``, allocates nothing.  The flat range from the first
    interior point to the last also covers ``out``'s ghost columns, which
    receive finite garbage the next halo fill overwrites.  The stencil is
    pointwise, so neither the blocking nor the flat layout changes a bit.
    """
    c0, c_xp, c_xm, c_yp, c_ym, c_xy = (
        1.0 - cx * cx - cy * cy, 0.5 * cx * (cx - 1.0), 0.5 * cx * (cx + 1.0),
        0.5 * cy * (cy - 1.0), 0.5 * cy * (cy + 1.0), 0.25 * cx * cy)
    wf, of, blocks = flat_blocks(w, out, scratch)
    s = w.shape[1]
    for lo, hi in blocks:
        o, t = of[lo:hi], scratch[:hi - lo]
        np.multiply(wf[lo:hi], c0, out=o)
        np.multiply(wf[lo + s:hi + s], c_xp, out=t)
        o += t
        np.multiply(wf[lo - s:hi - s], c_xm, out=t)
        o += t
        np.multiply(wf[lo + 1:hi + 1], c_yp, out=t)
        o += t
        np.multiply(wf[lo - 1:hi - 1], c_ym, out=t)
        o += t
        np.subtract(wf[lo + s + 1:hi + s + 1], wf[lo + s - 1:hi + s - 1],
                    out=t)
        t -= wf[lo - s + 1:hi - s + 1]
        t += wf[lo - s - 1:hi - s - 1]
        t *= c_xy
        o += t
    return out


def lw_step_interior(w: np.ndarray, cx: float, cy: float) -> np.ndarray:
    """:func:`lw_step_into` with fresh buffers: the interior of the step."""
    out = np.empty_like(w)
    return lw_step_into(w, cx, cy, out, scratch_for(w))[1:-1, 1:-1]


def lw_step_periodic(u: np.ndarray, cx: float, cy: float) -> np.ndarray:
    """One step of the fully periodic array ``u``, freshly allocated."""
    w = np.empty((u.shape[0] + 2, u.shape[1] + 2), dtype=u.dtype)
    w[1:-1, 1:-1] = u
    return lw_step_interior(wrap_halo(w), cx, cy)


@dataclass
class SerialAdvectionSolver:
    """Single-process reference solver on one anisotropic sub-grid.

    Despite the historical name this solver is problem-generic: it drives
    whatever ``step_interior`` kernel the problem object provides
    (Lax–Wendroff advection, FTCS diffusion, ...).  The state lives in the
    interior of a padded double buffer whose ghost layer is wrapped in
    place before each step; ``u`` is a view of that interior.
    """

    problem: object
    level_x: int
    level_y: int
    dt: float

    def __post_init__(self):
        u = periodic_from_initial(self.problem, self.level_x, self.level_y)
        # persistent buffers: the step allocates nothing
        self._w = np.empty((u.shape[0] + 2, u.shape[1] + 2), dtype=u.dtype)
        self._w[1:-1, 1:-1] = u
        self._spare = np.empty_like(self._w)
        self._scratch = scratch_for(self._w)
        self.step_count = 0

    @property
    def u(self) -> np.ndarray:
        return self._w[1:-1, 1:-1]

    @property
    def time(self) -> float:
        return self.step_count * self.dt

    def step(self, n: int = 1) -> None:
        for _ in range(n):
            self.problem.step_interior(
                wrap_halo(self._w), self.level_x, self.level_y, self.dt,
                out=self._spare, scratch=self._scratch)
            self._w, self._spare = self._spare, self._w
            self.step_count += 1

    def nodal(self) -> np.ndarray:
        return nodal_view(self.u)

    def exact_nodal(self) -> np.ndarray:
        nx, ny = 1 << self.level_x, 1 << self.level_y
        xs = np.arange(nx + 1) / nx
        ys = np.arange(ny + 1) / ny
        return self.problem.exact(xs, ys, self.time)
