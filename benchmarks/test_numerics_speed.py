"""Numerics performance: the two functions behind 96 % of ``grid_deep``.

The combination walks the grid levels once (about five target-sized
passes for any number of source grids) and the Lax–Wendroff step is one
14-pass kernel over the flattened padded buffer, in cache-sized blocks.
The combination ceiling is 3.5x the reference machine's best-of-five
reading (17 ms); a gather of every source grid onto the full target read
226 ms there, so a change that brings back a per-source target-sized
pass fails here, not only in the repo benchmark.  The two stepping
ceilings are 2x the best of five on a 2-core AMD EPYC box (Python 3.11,
numpy 2.4): 64 steps at 1024 x 128 read 13.7 ms through
``SerialAdvectionSolver`` and 13.9 ms through a one-rank group's
``_advance_group``.  The row-block kernel this replaced read 23.7 ms and
31.9 ms there — the group path handed it a strided ``out`` — so a
strided kernel call on the co-simulated path fails its ceiling.  The
best of five rounds is compared, not the mean: the ceiling guards the
algorithm, not the host's quiet.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.pde import (AdvectionProblem, DistributedAdvectionSolver,
                       SerialAdvectionSolver)
from repro.sparsegrid import cached_scheme, combine_nodal, nodal_of


@pytest.mark.benchmark(group="numerics")
def test_combine_n10_level4_under_60ms(benchmark):
    scheme = cached_scheme(10, 4)
    parts = {g.index: nodal_of(lambda x, y: np.sin(2 * np.pi * x) * y,
                               g.index) for g in scheme.grids}
    coeffs = {g.index: float(g.coeff) for g in scheme.grids}

    out = benchmark.pedantic(lambda: combine_nodal(parts, coeffs, (10, 10)),
                             rounds=5, iterations=1, warmup_rounds=1)
    assert out.shape == (1025, 1025)
    secs = benchmark.stats["min"]
    print(f"\ncombine_nodal, {len(parts)} grids -> 1025^2: "
          f"{secs * 1e3:.1f} ms")
    assert secs < 0.060


@pytest.mark.benchmark(group="numerics")
def test_64_steps_at_1024x128_under_28ms(benchmark):
    solver = SerialAdvectionSolver(AdvectionProblem(), 10, 7, dt=1e-4)
    solver.step(1)      # sizes the persistent buffers

    benchmark.pedantic(lambda: solver.step(64),
                       rounds=5, iterations=1, warmup_rounds=1)
    secs = benchmark.stats["min"]
    cells = solver.u.size * 64
    print(f"\n64 steps of 1024 x 128: {secs * 1e3:.1f} ms "
          f"({cells / secs / 1e6:.0f} M cell updates/s)")
    assert secs < 0.028


@pytest.mark.benchmark(group="numerics")
def test_64_group_steps_at_1024x128_under_28ms(benchmark):
    """The co-simulated path: a one-rank group's whole-grid segment."""
    solver = DistributedAdvectionSolver(
        None, SimpleNamespace(size=1, rank=0), AdvectionProblem(), 10, 7,
        dt=1e-4)

    slab, = benchmark.pedantic(lambda: solver._advance_group([solver.u], 64),
                               rounds=5, iterations=1, warmup_rounds=1)
    assert slab.shape == (1024, 128)
    secs = benchmark.stats["min"]
    print(f"\n64 group steps of 1024 x 128: {secs * 1e3:.1f} ms")
    assert secs < 0.028
