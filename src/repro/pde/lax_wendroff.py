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
:func:`lw_plan`; the step it binds evaluates the formula collected per
stencil point,

.. math::

    u^{n+1}_{ij} = c_0 u_{ij} + c_{x+} u_{i+1,j} + c_{x-} u_{i-1,j}
                 + c_{y+} u_{i,j+1} + c_{y-} u_{i,j-1}
                 + \\tfrac{c_x c_y}{4}\\delta_{xy} u, \\qquad
    c_0 = 1 - c_x^2 - c_y^2, \\quad c_{x\\pm} = \\tfrac{c_x}{2}(c_x \\mp 1),

in one pass over the halo-padded buffer read as a flat array: with ``s``
the padded row length the eight neighbours sit at flat offsets ``±s``,
``±1`` and ``±s±1``, so each of the 14 operations is a contiguous 1-D
ufunc over a cache-sized block.  The plan cuts those windows once per
buffer pair, so a solver that steps the same buffers again
(:func:`periodic_steps`, the distributed solver's per-message loop) pays
only the ufunc calls.  Every other entry point (:func:`lw_step_into`,
periodic or halo-padded, allocating or not) applies a one-step plan, so
all solvers share one arithmetic.  Periodic arrays are stored *without*
the duplicated right/top boundary (shape ``2^i × 2^j``); ``nodal_view``
re-attaches it for the combination technique, whose nodal grids are
``(2^i+1) × (2^j+1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

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


def halo_copies(w: np.ndarray) -> tuple:
    """The ghost layer of the padded buffer ``w`` as ``(ghost, source)``
    view pairs, in fill order: the rows wrap first, then the full columns,
    which carry the fresh rows' ends into the corners."""
    return ((w[0, 1:-1], w[-2, 1:-1]), (w[-1, 1:-1], w[1, 1:-1]),
            (w[:, 0], w[:, -2]), (w[:, -1], w[:, 1]))


def wrap_halo(w: np.ndarray) -> np.ndarray:
    """Fill the ghost layer of the padded buffer ``w`` (corners included)
    from its own interior by periodic wrap-around, in place."""
    for ghost, source in halo_copies(w):
        np.copyto(ghost, source)
    return w


def scratch_for(w: np.ndarray) -> np.ndarray:
    """A flat scratch buffer large enough for a kernel pass over ``w``."""
    return np.empty(min(_BLOCK_POINTS, w.size), dtype=w.dtype)


def flat_windows(w: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                 offsets: Tuple[int, ...]) -> list:
    """Check the buffers of a flat pass over ``w`` into ``out`` (flat
    offsets on a view or an overlap would be silently wrong) and cut them
    once: per block ``[lo, hi)`` of at most ``_BLOCK_POINTS`` tiling
    ``[s + 1, w.size - s - 1)``, the window of ``out``, of ``scratch`` and
    of flat ``w`` shifted by each of ``offsets``."""
    if (w.ndim != 2 or out.shape != w.shape or scratch.ndim != 1
            or not (w.flags.c_contiguous and out.flags.c_contiguous)
            or scratch.size < min(_BLOCK_POINTS, w.size)
            or np.may_share_memory(w, out)):
        raise ValueError(f"flat kernel needs separate C-contiguous w/out of "
                         f"one shape: {w.shape}, {out.shape}, {scratch.shape}")
    s, stop = w.shape[1], w.size - w.shape[1] - 1
    wf, of = w.reshape(-1), out.reshape(-1)
    windows = []
    for lo in range(s + 1, stop, _BLOCK_POINTS):
        hi = min(lo + _BLOCK_POINTS, stop)
        windows.append((of[lo:hi], scratch[:hi - lo],
                        *(wf[lo + d:hi + d] for d in offsets)))
    return windows


def lw_plan(w: np.ndarray, cx: float, cy: float,
            out: np.ndarray, scratch: np.ndarray) -> Callable[[], None]:
    """One step of the halo-padded block ``w`` into the interior of the
    padded ``out`` (same shape; ``scratch`` flat, :func:`scratch_for`),
    bound once: the coefficients and every block's windows are cut here,
    so the returned step of no arguments is only the 14 ufunc calls per
    block and allocates nothing.  The flat range from the first interior
    point to the last also covers ``out``'s ghost columns, which receive
    finite garbage the next halo fill overwrites.  The stencil is
    pointwise, so neither the blocking nor the flat layout changes a bit.
    """
    c0, c_xp, c_xm, c_yp, c_ym, c_xy = (
        1.0 - cx * cx - cy * cy, 0.5 * cx * (cx - 1.0), 0.5 * cx * (cx + 1.0),
        0.5 * cy * (cy - 1.0), 0.5 * cy * (cy + 1.0), 0.25 * cx * cy)
    s = w.shape[1]
    windows = flat_windows(w, out, scratch, (0, s, -s, 1, -1, s + 1, s - 1,
                                             1 - s, -1 - s))

    def step() -> None:
        for o, t, u, xp, xm, yp, ym, pp, pm, mp, mm in windows:
            np.multiply(u, c0, out=o)
            np.multiply(xp, c_xp, out=t)
            o += t
            np.multiply(xm, c_xm, out=t)
            o += t
            np.multiply(yp, c_yp, out=t)
            o += t
            np.multiply(ym, c_ym, out=t)
            o += t
            np.subtract(pp, pm, out=t)
            t -= mp
            t += mm
            t *= c_xy
            o += t
    return step


def lw_step_into(w: np.ndarray, cx: float, cy: float,
                 out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`lw_plan`'s step, made once; returns ``out``."""
    lw_plan(w, cx, cy, out, scratch)()
    return out


def periodic_steps(problem, w: np.ndarray, spare: np.ndarray,
                   scratch: np.ndarray, level_x: int, level_y: int,
                   dt: float, n: int, transposed: bool = False) -> np.ndarray:
    """``n`` steps of the periodic array held in the interior of the
    padded ``w``, through ``spare`` (same shape) and back: each step wraps
    the ghost layer and applies the kernel.  Both are bound once per
    direction, so a step is four halo copies and the kernel's ufuncs.
    Returns the buffer that holds the result."""
    bound = []
    for k in range(n):
        if k < 2:
            bound.append((halo_copies(w), problem.step_plan(
                w, level_x, level_y, dt, transposed, out=spare,
                scratch=scratch)))
        copies, step = bound[k & 1]
        for ghost, source in copies:
            np.copyto(ghost, source)
        step()
        w, spare = spare, w
    return w


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
    whatever ``step_plan`` kernel the problem object provides
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
        w = periodic_steps(self.problem, self._w, self._spare, self._scratch,
                           self.level_x, self.level_y, self.dt, n)
        if w is not self._w:
            self._w, self._spare = w, self._w
        self.step_count += n

    def nodal(self) -> np.ndarray:
        return nodal_view(self.u)

    def exact_nodal(self) -> np.ndarray:
        nx, ny = 1 << self.level_x, 1 << self.level_y
        xs = np.arange(nx + 1) / nx
        ys = np.arange(ny + 1) / ny
        return self.problem.exact(xs, ys, self.time)
