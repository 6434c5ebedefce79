"""Co-simulated solve segments against their oracle, the per-message loop.

A tracer forces every rank through ``exchange_halos`` + ``step_plan`` +
``ctx.compute``; without one a healthy group advances as one array step.
The two must agree to the bit — slabs, clocks, step counts, message and
byte counters — for every ring size, slab shape, orientation and kernel.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.presets import OPL
from repro.mpi import Universe
from repro.mpi.tracing import Tracer
from repro.pde import (AdvectionProblem, DiffusionProblem,
                       DistributedAdvectionSolver, choose_dims,
                       periodic_from_initial)

ADVECTION = AdvectionProblem(velocity=(1.0, 0.5))


class Bare:
    """The advection kernels behind nothing but the protocol the solver
    uses: ``initial``, ``stable_dt`` and ``step_plan``."""

    def __init__(self, inner=ADVECTION):
        self.initial, self.stable_dt = inner.initial, inner.stable_dt
        self._step_plan = inner.step_plan

    def step_plan(self, w, level_x, level_y, dt, transposed=False, *,
                  out, scratch):
        return self._step_plan(w, level_x, level_y, dt, transposed,
                               out=out, scratch=scratch)


PROBLEMS = {"advection": ADVECTION, "diffusion": DiffusionProblem(),
            "bare": Bare()}


def solve(size, problem, levels, segments, skews, *, traced):
    lx, ly = levels

    async def main(ctx):
        sol = DistributedAdvectionSolver(ctx, ctx.comm, problem, lx, ly,
                                         problem.stable_dt(max(lx, ly)))
        await ctx.compute(skews[ctx.rank])
        clocks = []
        for n in segments:
            await sol.step(n)
            clocks.append(ctx.wtime())
        return sol.u, sol.step_count, clocks

    uni = Universe(OPL)
    if traced:
        uni.tracer = Tracer()
    job = uni.launch(size, main)
    uni.run()
    return job.results(), uni


@settings(max_examples=60, deadline=None)
@given(size=st.sampled_from([1, 2, 3, 5, 64]),
       levels=st.sampled_from([(7, 3), (3, 7), (6, 6), (6, 7)]),
       segments=st.lists(st.integers(1, 8), min_size=1, max_size=2),
       problem=st.sampled_from(sorted(PROBLEMS)), data=st.data())
def test_untraced_step_is_the_traced_step(size, levels, segments, problem,
                                          data):
    # start skews from none to far longer than a segment: members then
    # leave before the last one arrives, on an arc of the group's slabs
    skews = data.draw(st.lists(
        st.one_of(st.floats(0.0, OPL.alpha), st.sampled_from([0.0, 1.0])),
        min_size=size, max_size=size))
    args = (size, PROBLEMS[problem], levels, segments, skews)
    oracle, traced_uni = solve(*args, traced=True)
    got, uni = solve(*args, traced=False)
    for (u, count, clocks), (ref, ref_count, ref_clocks) in zip(got, oracle):
        assert np.array_equal(u, ref) and u.shape == ref.shape
        assert u.flags.c_contiguous and u.flags.owndata and u.flags.writeable
        assert (count, clocks) == (ref_count, ref_clocks)
    assert uni.stats.messages == traced_uni.stats.messages
    assert uni.stats.bytes_sent == traced_uni.stats.bytes_sent
    if size == 2:
        # a pair keeps the loop (``ring_segment``): at least its two halo rows
        # and its compute sleep per rank per step
        assert uni.engine.events_processed >= 2 * 3 * sum(segments)
    else:
        # launch, the skew sleep, then one resume per rank per segment and,
        # in a group of several, the decision ending each segment's first
        # arrival instant
        decisions = len(segments) if size > 1 else 0
        assert uni.engine.events_processed \
            <= size * (2 + len(segments)) + decisions


def test_ranks_own_their_slabs_after_a_segment():
    """No two ranks (and no later segment) may share memory."""
    results, _uni = solve(3, ADVECTION, (5, 3), [2], [0.0] * 3, traced=False)
    slabs = [u for u, _count, _clocks in results]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(slabs)
                   for b in slabs[i + 1:])


# ----------------------------------------------------------------------
# the initial field, evaluated on the block only
# ----------------------------------------------------------------------
@pytest.mark.parametrize("grid", [1, 2, 3, 5, 8, 64, 128,
                                  (2, 2), (2, 1), (1, 3), (4, 2)],
                         ids=lambda g: "x".join(map(str, g))
                         if isinstance(g, tuple) else str(g))
def test_slab_initial_field_is_the_slice_of_the_whole_field(grid):
    """Bit-equal for every level pair up to 10 and every rank, on a "1d"
    ring of ``grid`` ranks or on the process grid ``grid``: the block the
    solver copies out of the group's field, and the field computed on the
    block alone (what a restore with no checkpoint computes).  If a numpy
    build ever disagrees (a vectorised ``sin`` whose lanes depend on the
    array length), go back to slicing rather than loosen this."""
    checked = 0
    for lx in range(11):
        for ly in range(11):
            dims = grid if isinstance(grid, tuple) \
                else choose_dims(grid, lx, ly, "1d")
            if (1 << lx) < dims[0] or (1 << ly) < dims[1]:
                continue
            full = periodic_from_initial(ADVECTION, lx, ly)
            group = SimpleNamespace(shared={})
            for rank in range(dims[0] * dims[1]):
                comm = SimpleNamespace(size=dims[0] * dims[1], rank=rank,
                                       state=group)
                sol = DistributedAdvectionSolver(
                    None, comm, ADVECTION, lx, ly, 1e-3,
                    dims=grid if isinstance(grid, tuple) else None)
                assert sol.dims == dims
                block = sol._block(rank)
                assert np.array_equal(sol.u, full[block]), (lx, ly, rank)
                assert np.array_equal(sol._initial(*block), full[block]), \
                    (lx, ly, rank)
                assert sol.u.flags.c_contiguous and sol.u.flags.owndata
                checked += 1
    assert checked
