"""Domain-decomposed Lax–Wendroff solver running over a simulated MPI group.

One instance lives on each rank of a sub-grid's process group.  The group
is a periodic ``px x py`` process grid, ranks laid out row-major: the
caller passes its ``dims``, by default the ``"1d"`` ring of
:func:`~repro.pde.decomposition.choose_dims`.  State is this rank's block of
the periodic array; each step exchanges one ghost layer with the periodic
neighbours, computes the stencil on the padded block, and charges the
virtual-time cost of the flops.

The exchange works on the block with the decomposed axis first — a grid
with one process row along y presents its block transposed and runs the
``transposed=True`` kernel — in two phases: along that axis with interior
rows, then along the other with full columns, which carry the fresh ghosts
so the corners the cross term needs arrive without diagonal messages.  A
phase along an axis with one process is a local wrap, so a one-row grid (a
ring of slabs) sends two messages per step.

A healthy ring does not run that loop rank by rank: ``step(n)`` is one
rendezvous (``CommHandle.ring_segment``) that steps the whole sub-grid ``n``
times; the loop is its degenerate case and the tested oracle.  A true 2-D
grid steps per message.

The solver also provides the state-motion primitives the recovery
techniques need: ``gather_full`` (root assembles the whole sub-grid),
``scatter_full`` (root redistributes a replacement state, e.g. after
restart or resampling), and ``snapshot`` of the local block for
checkpointing.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .decomposition import SlabDecomposition, block_bounds, choose_dims
from .lax_wendroff import (FLOPS_PER_POINT, nodal_view,
                           periodic_steps, scratch_for)

_HALO_TAG_UP = 101
_HALO_TAG_DOWN = 102
_HALO_TAG_LEFT = 103
_HALO_TAG_RIGHT = 104


class DistributedAdvectionSolver:
    """Solver for one anisotropic sub-grid on one process group."""

    def __init__(self, ctx, comm, problem, level_x: int, level_y: int,
                 dt: float, compute_scale: float = 1.0,
                 dims: Optional[Tuple[int, int]] = None):
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
        self.dims = px, py = tuple(dims) if dims is not None \
            else choose_dims(comm.size, level_x, level_y, "1d")
        if px * py != comm.size:
            raise ValueError(f"process grid {self.dims} needs {px * py} "
                             f"ranks, the communicator has {comm.size}")
        #: a ring (one process row) co-simulates its segments
        self.ring = px == 1 or py == 1
        #: the axis the block is presented first along: the decomposed one
        #: of a ring (the longer one of a single process), x otherwise
        self.axis = 1 if px == 1 and (py > 1 or level_y > level_x) else 0
        cx, cy = divmod(comm.rank, py)
        (x_prev, x_next), (y_prev, y_next) = \
            SlabDecomposition(1 << level_x, px).neighbours(cx), \
            SlabDecomposition(1 << level_y, py).neighbours(cy)
        along_x = (px, (x_prev * py + cy, x_next * py + cy))
        along_y = (py, (cx * py + y_prev, cx * py + y_next))
        #: (parts, (previous, next)) of the two exchange phases, in order
        self._phases = (along_y, along_x) if self.axis else (along_x, along_y)
        self.step_count = 0
        self.u = self.initial_block()
        # persistent step buffers (lazily sized) and the kernel bound to
        # the padded pair: (w, step)
        self._w = self._pad = self._buf_a = self._buf_b = self._kernel = None

    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        return self.step_count * self.dt

    @property
    def shape(self):
        return (1 << self.level_x, 1 << self.level_y)

    def _block(self, rank: int):
        """Index of ``rank``'s block in the full periodic array."""
        (x0, x1), (y0, y1) = block_bounds(self.shape, self.dims, rank)
        return slice(x0, x1), slice(y0, y1)

    def _initial(self, bx: slice = slice(None),
                 by: slice = slice(None)) -> np.ndarray:
        """The initial field on the block ``bx x by`` of the grid."""
        nx, ny = self.shape
        xs, ys = np.arange(nx) / nx, np.arange(ny) / ny
        return self.problem.initial(xs[bx, None], ys[None, by])

    def initial_block(self) -> np.ndarray:
        """The initial field on my block only.  The field is elementwise,
        so my block of the whole grid's field is bit-equal to the field
        computed on my block: the group's first member computes the grid's
        field once and leaves it on the communicator (``CommState.shared``),
        every member copies its block out, and the last one drops it.  A
        later call on that communicator (a restore with no checkpoint)
        computes its own block."""
        size = self.comm.size
        if size == 1:
            return np.ascontiguousarray(self._initial())
        shared = self.comm.state.shared
        key = (self.problem, self.level_x, self.level_y)
        entry = shared.get(key)
        if entry is None:
            entry = shared[key] = [self._initial(), size]
        field = entry[0]
        entry[1] -= 1
        if entry[1] == 0:
            entry[0] = None
        bx, by = self._block(self.comm.rank)
        if field is None:
            return np.ascontiguousarray(self._initial(bx, by))
        return field[bx, by].copy()

    # ------------------------------------------------------------------
    # time stepping
    # ------------------------------------------------------------------
    async def exchange_halos(self) -> np.ndarray:
        """Return the padded block, decomposed axis first (one ghost layer
        on all four sides).

        The padded buffer is persistent (every cell is overwritten each
        call).  Halos are sent with ``copy=False``: the ``.copy()`` here
        already transfers ownership of a private row, so the MPI layer need
        not clone it again (the receiver gets a read-only view).
        """
        v = self.u.T if self.axis else self.u
        rows, cols = v.shape
        w = self._w
        if w is None or w.shape != (rows + 2, cols + 2):
            w = self._w = np.empty((rows + 2, cols + 2), dtype=v.dtype)
        w[1:-1, 1:-1] = v
        (parts_a, (prev_a, next_a)), (parts_b, (prev_b, next_b)) = \
            self._phases
        # phase 1: along axis 0, interior rows only
        if parts_a == 1:
            w[0, 1:-1] = v[-1, :]
            w[-1, 1:-1] = v[0, :]
        else:
            w[0, 1:-1], w[-1, 1:-1] = await self.comm.exchange(
                ((prev_a, _HALO_TAG_UP, v[0, :].copy()),
                 (next_a, _HALO_TAG_DOWN, v[-1, :].copy())),
                ((prev_a, _HALO_TAG_DOWN), (next_a, _HALO_TAG_UP)),
                copy=False)
        # phase 2: along axis 1, full columns (phase-1 ghosts -> corners)
        if parts_b == 1:
            w[:, 0] = w[:, -2]
            w[:, -1] = w[:, 1]
        else:
            w[:, 0], w[:, -1] = await self.comm.exchange(
                ((prev_b, _HALO_TAG_LEFT, w[:, 1].copy()),
                 (next_b, _HALO_TAG_RIGHT, w[:, -2].copy())),
                ((prev_b, _HALO_TAG_RIGHT), (next_b, _HALO_TAG_LEFT)),
                copy=False)
        return w

    def _advance_group(self, slabs, n: int) -> list:
        """``n`` steps of the periodic array assembled from a ring's
        ``slabs`` (the group's in rank order, or an arc of it), cut back
        into owned C-contiguous slabs by slicing.  The kernel is the one
        every rank's ``step`` applies -- same orientation: ``transposed``
        swaps the x/y accumulation order -- bound once per segment to a
        padded double buffer whose ghost layer wraps from the array's own
        edges (:func:`~repro.pde.lax_wendroff.periodic_steps`), so a step
        is only the halo copies and the ufunc calls; the stencil is
        pointwise, so more rows change no bit.
        """
        transposed = self.axis == 1
        parts = [u.T for u in slabs] if transposed else slabs
        rows, cols = sum(len(part) for part in parts), parts[0].shape[1]
        w = np.empty((rows + 2, cols + 2), dtype=parts[0].dtype)
        np.concatenate(parts, axis=0, out=w[1:-1, 1:-1])
        full = periodic_steps(self.problem, w, np.empty_like(w),
                              scratch_for(w), self.level_x, self.level_y,
                              self.dt, n, transposed)[1:-1, 1:-1]
        out, lo = [], 0
        for part in parts:
            block, lo = full[lo:lo + len(part)], lo + len(part)
            out.append((block.T if transposed else block).copy())
        return out

    async def step(self, n: int = 1) -> None:
        if n > 0 and self.ring:
            slab = await self.comm.ring_segment(
                n, self.u.shape[1 - self.axis] * self.u.itemsize,
                self.ctx.compute_seconds(
                    flops=FLOPS_PER_POINT * self.u.size * self.compute_scale),
                self.u, self._advance_group)
            if slab is not None:
                self.u = slab
                self.step_count += n
                return
        for _ in range(n):
            w = await self.exchange_halos()
            if self._kernel is None or self._kernel[0] is not w:
                # bound once per persistent buffer pair
                self._pad = np.empty_like(w)
                self._kernel = w, self.problem.step_plan(
                    w, self.level_x, self.level_y, self.dt, self.axis == 1,
                    out=self._pad, scratch=scratch_for(w))
            if self._buf_a is None or self._buf_a.shape != self.u.shape:
                self._buf_a = np.empty_like(self.u)
                self._buf_b = np.empty_like(self.u)
            self._kernel[1]()
            # double buffer: copy the interior into whichever private
            # buffer the state does not currently occupy
            out = self._buf_b if self.u is self._buf_a else self._buf_a
            inner = self._pad[1:-1, 1:-1]
            np.copyto(out, inner.T if self.axis else inner)
            self.u = out
            self.step_count += 1
            await self.ctx.compute(
                flops=FLOPS_PER_POINT * self.u.size * self.compute_scale)

    def rebind(self, new_comm) -> None:
        """Swap in a replacement communicator after reconstruction.

        The repaired communicator preserves size and rank order, so the
        process grid (and this rank's block) stays valid; a plain
        communicator is fine, the neighbours come from ``dims``.
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
        full = np.empty(self.shape, dtype=self.u.dtype)
        for rank, block in enumerate(parts):
            full[self._block(rank)] = block
        return full

    async def gather_nodal(self, root: int = 0) -> Optional[np.ndarray]:
        full = await self.gather_full(root)
        return None if full is None else nodal_view(full)

    async def scatter_full(self, full: Optional[np.ndarray], root: int = 0,
                           step_count: Optional[int] = None) -> None:
        """Replace the state from a full periodic array held by ``root``."""
        if self.comm.rank == root:
            chunks = [np.ascontiguousarray(full[self._block(p)])
                      for p in range(self.comm.size)]
        else:
            chunks = None
        self.u = await self.comm.scatter(chunks, root=root)
        if step_count is not None:
            self.step_count = step_count

    # ------------------------------------------------------------------
    # checkpoint support (local block only; the Disk charges I/O cost, and
    # ``ft.checkpoint.restore_checkpoint`` reassembles blocks)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {"u": self.u.copy(), "step_count": self.step_count,
                "level_x": self.level_x, "level_y": self.level_y}
