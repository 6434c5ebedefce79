"""The model problem: 2D scalar advection with a known analytic solution.

The paper solves the constant-coefficient scalar advection equation

.. math:: u_t + a\\,u_x + b\\,u_y = 0

on the unit square with periodic boundaries, so the exact solution is the
initial condition transported by ``(a, b) t`` — which is what makes the
accuracy study of Fig. 10 possible (error = combined solution vs the
analytic solution computed from the initial conditions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .lax_wendroff import courant_numbers, flat_windows, lw_plan


def sinusoid(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Default initial condition: a smooth periodic product of sines."""
    return np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)


def gaussian_hump(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A periodised Gaussian hump (sharper features than the sinusoid)."""
    out = np.zeros(np.broadcast(x, y).shape, dtype=float)
    for sx in (-1.0, 0.0, 1.0):
        for sy in (-1.0, 0.0, 1.0):
            out += np.exp(-(((x - 0.5 + sx) ** 2 + (y - 0.5 + sy) ** 2) / 0.01))
    return out


@dataclass(frozen=True)
class AdvectionProblem:
    """Problem definition: velocity, initial condition, domain [0,1]^2.

    Implements the generic problem interface the solvers consume:
    ``initial`` / ``exact`` / ``stable_dt`` plus the one stencil kernel
    ``step_plan``, a halo-padded block's step into a padded buffer (whole
    periodic arrays included: their halo is the wrapped interior), bound
    once to its buffers.  The scheme is 2D Lax–Wendroff.
    """

    velocity: Tuple[float, float] = (1.0, 0.5)
    initial: Callable[[np.ndarray, np.ndarray], np.ndarray] = sinusoid

    def initial_on(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Initial condition sampled on the tensor grid ``xs × ys``."""
        return self.initial(xs[:, None], ys[None, :])

    def exact(self, xs: np.ndarray, ys: np.ndarray, t: float) -> np.ndarray:
        """Analytic solution at time ``t`` on the tensor grid ``xs × ys``."""
        a, b = self.velocity
        x = np.mod(xs - a * t, 1.0)
        y = np.mod(ys - b * t, 1.0)
        return self.initial(x[:, None], y[None, :])

    def stable_dt(self, max_level: int, cfl: float = 0.4) -> float:
        """A timestep stable on the *finest* grid in the scheme.

        The paper uses one fixed dt across all sub-grids for stability, set
        by the most refined axis (``2^max_level`` cells).
        """
        a, b = self.velocity
        h = 1.0 / (1 << max_level)
        speed = abs(a) + abs(b)
        if speed == 0.0:
            return cfl * h
        return cfl * h / speed

    # -- stencil kernel (generic solver interface) -----------------------
    def step_plan(self, w: np.ndarray, level_x: int, level_y: int,
                  dt: float, transposed: bool = False, *,
                  out: np.ndarray, scratch: np.ndarray) -> Callable[[], None]:
        """The stencil update of the halo-padded block ``w`` into the
        interior of the padded ``out``, bound once to its buffers
        (``scratch`` flat; see :func:`~repro.pde.lax_wendroff.lw_plan`):
        the returned callable of no arguments makes the step and allocates
        nothing.

        ``transposed=True`` means the block's axis 0 is the physical y
        axis (a grid decomposed along y presents its data transposed), so
        the two Courant numbers swap roles.
        """
        cx, cy = courant_numbers(self.velocity, level_x, level_y, dt)
        if transposed:
            cx, cy = cy, cx
        return lw_plan(w, cx, cy, out, scratch)


@dataclass(frozen=True)
class DiffusionProblem:
    """2D heat equation ``u_t = kappa (u_xx + u_yy)`` on [0,1]^2, periodic.

    With the product-of-sines initial condition the exact solution is a
    decaying mode, so accuracy experiments work unchanged.  The scheme is
    explicit FTCS (first order in time, second in space) — a second,
    genuinely different PDE exercising the same solver / combination /
    fault-recovery machinery (the combination technique is not specific to
    advection, and neither is this library).
    """

    kappa: float = 0.05
    kx: int = 1
    ky: int = 1

    def initial(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.sin(2 * np.pi * self.kx * x) * \
            np.sin(2 * np.pi * self.ky * y)

    def initial_on(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self.initial(xs[:, None], ys[None, :])

    def exact(self, xs: np.ndarray, ys: np.ndarray, t: float) -> np.ndarray:
        decay = np.exp(-self.kappa * (2 * np.pi) ** 2 *
                       (self.kx ** 2 + self.ky ** 2) * t)
        return decay * self.initial(xs[:, None], ys[None, :])

    def stable_dt(self, max_level: int, cfl: float = 0.4) -> float:
        """FTCS stability: ``kappa dt (1/dx^2 + 1/dy^2) <= 1/2``; sized for
        the finest (isotropic) grid, scaled by the safety factor ``cfl``."""
        h = 1.0 / (1 << max_level)
        return cfl * 0.25 * h * h / self.kappa

    def _fourier(self, level_x: int, level_y: int, dt: float):
        rx = self.kappa * dt * float(1 << level_x) ** 2
        ry = self.kappa * dt * float(1 << level_y) ** 2
        return rx, ry

    def step_plan(self, w: np.ndarray, level_x: int, level_y: int,
                  dt: float, transposed: bool = False, *,
                  out: np.ndarray, scratch: np.ndarray) -> Callable[[], None]:
        """Allocation-free FTCS update of the interior of ``w``, one flat
        pass bound once as :func:`~repro.pde.lax_wendroff.lw_plan` binds
        its."""
        rx, ry = self._fourier(level_x, level_y, dt)
        if transposed:
            rx, ry = ry, rx
        s = w.shape[1]
        windows = flat_windows(w, out, scratch, (0, s, -s, 1, -1))

        def step() -> None:
            for o, t, u, xp, xm, yp, ym in windows:
                np.multiply(2.0, u, out=t)
                np.subtract(xp, t, out=t)
                t += xm
                t *= rx
                np.add(u, t, out=o)
                np.multiply(2.0, u, out=t)
                np.subtract(yp, t, out=t)
                t += ym
                t *= ry
                o += t
        return step
