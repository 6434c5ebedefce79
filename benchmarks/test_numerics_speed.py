"""Numerics performance: the two functions behind 96 % of ``grid_deep``.

The combination walks the grid levels once (about five target-sized
passes for any number of source grids) and the Lax–Wendroff step is one
14-pass kernel over cache-sized row blocks.  The ceilings are generous —
3.5x and 2x the reference machine's best-of-five readings (17 ms, 70 ms)
— and sit below, or at, what the designs they replaced took on the same
machine: a gather of every source grid onto the full target read 226 ms,
a 21-pass kernel streaming the whole slab 132-158 ms.  A change that
brings back a per-source target-sized pass therefore fails here, not
only in the repo benchmark.  The best of five rounds is compared, not
the mean: the ceiling guards the algorithm, not the host's quiet.
"""

import numpy as np
import pytest

from repro.pde import AdvectionProblem, SerialAdvectionSolver
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
def test_64_steps_at_1024x128_under_150ms(benchmark):
    solver = SerialAdvectionSolver(AdvectionProblem(), 10, 7, dt=1e-4)
    solver.step(1)      # sizes the persistent buffers

    benchmark.pedantic(lambda: solver.step(64),
                       rounds=5, iterations=1, warmup_rounds=1)
    secs = benchmark.stats["min"]
    cells = solver.u.size * 64
    print(f"\n64 steps of 1024 x 128: {secs * 1e3:.0f} ms "
          f"({cells / secs / 1e6:.0f} M cell updates/s)")
    assert secs < 0.15
