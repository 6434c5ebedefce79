"""Domain-decomposed Lax–Wendroff solver running over a simulated MPI group.

One instance lives on each rank of a sub-grid's process group.  State is a
slab of the periodic array; each step exchanges one halo row with each
periodic neighbour, computes the stencil on the padded block, and charges
the virtual-time cost of the flops.

A healthy group does not run that loop rank by rank: ``step(n)`` is one
rendezvous (``CommHandle.ring_segment``) that steps the whole sub-grid ``n``
times; the loop is its degenerate case and the tested oracle.

The solver also provides the state-motion primitives the recovery
techniques need: ``gather_full`` (root assembles the whole sub-grid),
``scatter_full`` (root redistributes a replacement state, e.g. after
restart or resampling), and ``snapshot``/``restore`` of the local slab for
checkpointing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .decomposition import SlabDecomposition, choose_axis
from .lax_wendroff import FLOPS_PER_POINT, nodal_view

_HALO_TAG_UP = 101
_HALO_TAG_DOWN = 102


class DistributedAdvectionSolver:
    """Solver for one anisotropic sub-grid on one process group."""

    def __init__(self, ctx, comm, problem, level_x: int, level_y: int,
                 dt: float, compute_scale: float = 1.0):
        self.ctx = ctx
        self.comm = comm
        self.problem = problem
        self.level_x = level_x
        self.level_y = level_y
        self.dt = dt
        #: multiplier on the virtual compute cost per step — models more
        #: expensive per-cell physics (or a finer grid) without changing
        #: the actual numerics; see DESIGN.md on timing-scale substitution
        self.compute_scale = compute_scale
        self.axis = choose_axis(level_x, level_y)
        n_axis = 1 << (level_x if self.axis == 0 else level_y)
        self.decomp = SlabDecomposition(n_axis, comm.size, self.axis)
        self.step_count = 0
        # the initial field on this slab only (elementwise: bit-equal to a slice)
        nx, ny = 1 << level_x, 1 << level_y
        xs, ys = np.arange(nx) / nx, np.arange(ny) / ny
        lo, hi = self.decomp.bounds(comm.rank)
        self.u = np.ascontiguousarray(
            problem.initial(xs[lo:hi, None], ys[None, :]) if self.axis == 0
            else problem.initial(xs[:, None], ys[None, lo:hi]))
        # persistent step buffers (lazily sized; only used when the problem
        # provides allocation-free kernels)
        self._w = self._buf_a = self._buf_b = self._ti = self._scratch = None

    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        return self.step_count * self.dt

    @property
    def shape(self):
        return (1 << self.level_x, 1 << self.level_y)

    def _slab(self, arr: np.ndarray) -> np.ndarray:
        """My slab of a full periodic array."""
        lo, hi = self.decomp.bounds(self.comm.rank)
        return np.ascontiguousarray(
            arr[lo:hi, :] if self.axis == 0 else arr[:, lo:hi])

    # ------------------------------------------------------------------
    # time stepping
    # ------------------------------------------------------------------
    async def exchange_halos(self) -> np.ndarray:
        """Return the padded block (one ghost layer on all four sides).

        The padded buffer is persistent (every cell is overwritten each
        call).  Halo rows are sent with ``copy=False``: the ``.copy()``
        here already transfers ownership of a private row, so the MPI layer
        need not clone it again (the receiver gets a read-only view).
        """
        comm = self.comm
        u = self.u if self.axis == 0 else self.u.T
        prev_r, next_r = self.decomp.neighbours(comm.rank)
        if comm.size == 1:
            lo_ghost, hi_ghost = u[-1, :], u[0, :]
        else:
            lo_ghost, hi_ghost = await comm.exchange(
                ((prev_r, _HALO_TAG_UP, u[0, :].copy()),
                 (next_r, _HALO_TAG_DOWN, u[-1, :].copy())),
                ((prev_r, _HALO_TAG_DOWN), (next_r, _HALO_TAG_UP)),
                copy=False)
        nloc, ny = u.shape
        w = self._w
        if w is None or w.shape != (nloc + 2, ny + 2):
            w = self._w = np.empty((nloc + 2, ny + 2), dtype=u.dtype)
        w[1:-1, 1:-1] = u
        w[0, 1:-1] = lo_ghost
        w[-1, 1:-1] = hi_ghost
        # periodic wrap in the non-decomposed axis (corners included)
        w[:, 0] = w[:, -2]
        w[:, -1] = w[:, 1]
        return w

    def _advance_group(self, slabs, n: int) -> list:
        """``n`` steps of the periodic array assembled from ``slabs`` (the
        group's in rank order, or an arc of it), split back into owned
        C-contiguous slabs.  The kernel call is the one every rank's ``step``
        makes — same orientation: ``transposed`` swaps the x/y accumulation
        order, ``step_periodic`` would not — on a block whose ghost rows are
        the array's own; the stencil is pointwise, so more rows change no bit.
        """
        problem, lx, ly, dt = self.problem, self.level_x, self.level_y, self.dt
        transposed = self.axis == 1
        parts = [u.T for u in slabs] if transposed else slabs
        rows, cols = sum(len(part) for part in parts), parts[0].shape[1]
        w = np.empty((rows + 2, cols + 2), dtype=parts[0].dtype)
        np.concatenate(parts, axis=0, out=w[1:-1, 1:-1])
        inplace = getattr(problem, "inplace_kernels", False)
        if inplace:
            spare, scratch = np.empty_like(w), np.empty((rows, cols), w.dtype)
        for _ in range(n):
            w[0, 1:-1] = w[-2, 1:-1]
            w[-1, 1:-1] = w[1, 1:-1]
            w[:, 0] = w[:, -2]
            w[:, -1] = w[:, 1]
            if inplace:
                problem.step_interior(w, lx, ly, dt, transposed=transposed,
                                      out=spare[1:-1, 1:-1], scratch=scratch)
                w, spare = spare, w
            else:
                w[1:-1, 1:-1] = problem.step_interior(
                    w, lx, ly, dt, transposed=transposed)
        full = w[1:-1, 1:-1].T if transposed else w[1:-1, 1:-1]
        cuts = np.cumsum([len(part) for part in parts[:-1]], dtype=int)
        return [part.copy() for part in np.split(full, cuts, axis=self.axis)]

    async def step(self, n: int = 1) -> None:
        if n > 0:
            slab = await self.comm.ring_segment(
                n, self.u.shape[1 - self.axis] * self.u.itemsize,
                self.ctx.compute_seconds(
                    flops=FLOPS_PER_POINT * self.u.size * self.compute_scale),
                self.u, self._advance_group)
            if slab is not None:
                self.u = slab
                self.step_count += n
                return
        transposed = self.axis == 1
        inplace = getattr(self.problem, "inplace_kernels", False)
        for _ in range(n):
            w = await self.exchange_halos()
            if inplace:
                if self._buf_a is None or self._buf_a.shape != self.u.shape:
                    self._buf_a = np.empty_like(self.u)
                    self._buf_b = np.empty_like(self.u)
                    interior = (w.shape[0] - 2, w.shape[1] - 2)
                    self._scratch = np.empty(interior, dtype=self.u.dtype)
                    self._ti = (None if not transposed
                                else np.empty(interior, dtype=self.u.dtype))
                # double buffer: write into whichever private buffer the
                # state does not currently occupy
                out = self._buf_b if self.u is self._buf_a else self._buf_a
                if transposed:
                    unew = self.problem.step_interior(
                        w, self.level_x, self.level_y, self.dt,
                        transposed=True, out=self._ti, scratch=self._scratch)
                    np.copyto(out, unew.T)
                else:
                    self.problem.step_interior(
                        w, self.level_x, self.level_y, self.dt,
                        transposed=False, out=out, scratch=self._scratch)
                self.u = out
            else:
                unew = self.problem.step_interior(
                    w, self.level_x, self.level_y, self.dt,
                    transposed=transposed)
                self.u = unew if self.axis == 0 \
                    else np.ascontiguousarray(unew.T)
            self.step_count += 1
            await self.ctx.compute(
                flops=FLOPS_PER_POINT * self.u.size * self.compute_scale)

    def rebind(self, new_comm) -> None:
        """Swap in a replacement communicator after reconstruction.

        The repaired communicator preserves size and rank order, so the
        decomposition (and this rank's slab) stays valid.
        """
        if new_comm.size != self.comm.size or new_comm.rank != self.comm.rank:
            raise ValueError(
                "replacement communicator must preserve size and rank "
                f"(got rank {new_comm.rank}/{new_comm.size}, had "
                f"{self.comm.rank}/{self.comm.size})")
        self.comm = new_comm

    # ------------------------------------------------------------------
    # state motion
    # ------------------------------------------------------------------
    async def gather_full(self, root: int = 0) -> Optional[np.ndarray]:
        """Assemble the whole periodic array on ``root`` (None elsewhere)."""
        parts = await self.comm.gather(self.u, root=root)
        if parts is None:
            return None
        return np.concatenate(parts, axis=self.axis)

    async def gather_nodal(self, root: int = 0) -> Optional[np.ndarray]:
        full = await self.gather_full(root)
        return None if full is None else nodal_view(full)

    async def scatter_full(self, full: Optional[np.ndarray], root: int = 0,
                           step_count: Optional[int] = None) -> None:
        """Replace the state from a full periodic array held by ``root``."""
        if self.comm.rank == root:
            chunks = []
            for p in range(self.comm.size):
                lo, hi = self.decomp.bounds(p)
                chunks.append(full[lo:hi, :] if self.axis == 0
                              else np.ascontiguousarray(full[:, lo:hi]))
        else:
            chunks = None
        self.u = await self.comm.scatter(chunks, root=root)
        if step_count is not None:
            self.step_count = step_count

    # ------------------------------------------------------------------
    # checkpoint support (local slab only; the Disk charges I/O cost)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {"u": self.u.copy(), "step_count": self.step_count,
                "level_x": self.level_x, "level_y": self.level_y}

    def restore(self, snap: dict) -> None:
        if (snap["level_x"], snap["level_y"]) != (self.level_x, self.level_y):
            raise ValueError("checkpoint is for a different sub-grid")
        self.u = snap["u"].copy()
        self.step_count = snap["step_count"]
