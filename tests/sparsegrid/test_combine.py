"""Serial and parallel combination."""

import numpy as np
import pytest

from repro.pde import AdvectionProblem, SerialAdvectionSolver, l1
from repro.sparsegrid import (CombinationScheme, axis_points, combine_nodal,
                              combine_on_root, nodal_of, scatter_samples)

from ..conftest import run_ranks as run


def classic_parts_and_coeffs(n=6, level=4, steps=8):
    prob = AdvectionProblem()
    scheme = CombinationScheme(n, level)
    dt = prob.stable_dt(n)
    parts, coeffs = {}, {}
    for g in scheme.grids:
        s = SerialAdvectionSolver(prob, g.level_x, g.level_y, dt)
        s.step(steps)
        parts[g.index] = s.nodal()
        coeffs[g.index] = g.coeff
    return prob, parts, coeffs, steps * dt


def test_combination_beats_coarsest_grid():
    prob, parts, coeffs, t = classic_parts_and_coeffs()
    target = (6, 6)
    combined = combine_nodal(parts, coeffs, target)
    xs = axis_points(6)
    exact = prob.exact(xs, xs, t)
    err_comb = l1(combined, exact)
    # each individual anisotropic grid is worse than the combination
    worst = max(l1(np.asarray(
        __import__("repro.sparsegrid", fromlist=["resample"]).resample(
            parts[ix], ix, target)), exact) for ix in parts)
    assert err_comb < worst


def test_missing_grid_raises():
    prob, parts, coeffs, _ = classic_parts_and_coeffs()
    missing = next(iter(parts))
    del parts[missing]
    with pytest.raises(KeyError):
        combine_nodal(parts, coeffs, (6, 6))


def test_zero_coefficient_grid_not_needed():
    prob, parts, coeffs, _ = classic_parts_and_coeffs()
    some = next(iter(parts))
    coeffs[some] = 0.0
    del parts[some]
    combine_nodal(parts, coeffs, (6, 6))  # must not raise


def test_all_zero_coefficients_rejected():
    with pytest.raises(ValueError):
        combine_nodal({}, {(1, 1): 0.0}, (2, 2))


def test_combination_of_interpolants_exact_for_constant():
    coeffs = {(2, 4): 1.0, (4, 2): 1.0, (2, 2): -1.0}
    parts = {ix: np.full(((1 << ix[0]) + 1, (1 << ix[1]) + 1), 2.5)
             for ix in coeffs}
    out = combine_nodal(parts, coeffs, (5, 5))
    assert np.allclose(out, 2.5)


def test_parallel_combine_matches_serial():
    prob, parts, coeffs, _ = classic_parts_and_coeffs()
    serial = combine_nodal(parts, coeffs, (6, 6))
    indices = sorted(parts)

    async def main(ctx):
        mine = {}
        if ctx.rank < len(indices):
            ix = indices[ctx.rank]
            mine[ix] = parts[ix]
        return await combine_on_root(ctx.comm, mine, coeffs, (6, 6), root=0)

    res, _ = run(len(indices) + 2, main)
    assert np.allclose(res[0], serial)
    assert all(r is None for r in res[1:])


def test_parallel_combine_duplicate_contributions_first_wins():
    coeffs = {(2, 2): 1.0}
    a = np.zeros((5, 5))
    b = np.ones((5, 5))

    async def main(ctx):
        mine = {(2, 2): a} if ctx.rank == 0 else {(2, 2): b}
        return await combine_on_root(ctx.comm, mine, coeffs, (2, 2), root=0)

    res, _ = run(2, main)
    assert np.allclose(res[0], 0.0)


def test_scatter_samples_delivers_requested_grids():
    combined = nodal_of(lambda x, y: x + 2 * y, (4, 4))

    async def main(ctx):
        wanted = {1: (2, 2), 2: (3, 2)}
        sample = await scatter_samples(
            ctx.comm, combined if ctx.rank == 0 else None, (4, 4), wanted,
            root=0)
        return None if sample is None else sample.shape

    res, _ = run(3, main)
    assert res[0] is None
    assert res[1] == (5, 5)
    assert res[2] == (9, 5)


# ----------------------------------------------------------------------
# the level-by-level combination against the one-source-at-a-time oracle
# ----------------------------------------------------------------------

def assert_matches_reference(parts, coeffs, n):
    """`combine_nodal` sums in another order than the oracle (per level,
    not per source), so they agree to rounding: a few ulp of the largest
    possible term sum, on targets coarser, equal, finer and mixed."""
    from repro.sparsegrid import combine_nodal_reference
    tol = 4 * np.finfo(float).eps * sum(abs(c) for c in coeffs.values()) \
        * max(np.abs(parts[ix]).max() for ix, c in coeffs.items() if c)
    for target in ((n, n), (n - 1, n - 1), (n + 1, n), (n - 2, n + 1)):
        ref = combine_nodal_reference(parts, coeffs, target)
        out = combine_nodal(parts, coeffs, target)
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert np.abs(out - ref).max() <= tol, target


def test_combine_matches_reference():
    prob, parts, coeffs, _ = classic_parts_and_coeffs()
    assert_matches_reference(parts, coeffs, 6)


def test_combine_matches_reference_with_alternate_coefficients():
    """AC-style coefficient sets (zeros, negatives, reweighted grids,
    several grids per y-level) exercise the zero-skip and grouping paths."""
    from repro.sparsegrid import (CombinationScheme,
                                  alternate_coefficients_for, nodal_of)
    scheme = CombinationScheme(6, 4, extra_layers=2)
    coeffs = alternate_coefficients_for(scheme, {1, 4})
    parts = {ix: nodal_of(lambda x, y: np.sin(x + 2 * y), ix)
             for ix in coeffs}
    coeffs[(4, 5)] = 0.0    # a lost grid: zero weight, no data
    assert_matches_reference(parts, coeffs, 6)


def test_combine_returns_owned_contiguous_arrays():
    prob, parts, coeffs, _ = classic_parts_and_coeffs()
    before = {ix: v.copy() for ix, v in parts.items()}
    a = combine_nodal(parts, coeffs, (6, 6))
    b = combine_nodal(parts, coeffs, (6, 6))
    assert a is not b and not np.shares_memory(a, b)
    assert np.array_equal(a, b)
    # a single part already on the target comes back as a copy, not a view
    one = combine_nodal(parts, {(6, 3): 1.0}, (6, 3))
    one[:] = -1.0
    for out in (a, one):
        assert out.flags.owndata and out.flags.c_contiguous
    assert all(np.array_equal(parts[ix], before[ix]) for ix in parts)


def test_plan_error_parity_with_reference():
    from repro.sparsegrid import combine_nodal_reference
    prob, parts, coeffs, _ = classic_parts_and_coeffs()
    missing = next(iter(parts))
    bad = dict(parts)
    del bad[missing]
    wrong_shape = dict(parts)
    wrong_shape[missing] = np.zeros((3, 3))
    for fn in (combine_nodal, combine_nodal_reference):
        with pytest.raises(KeyError):
            fn(bad, coeffs, (6, 6))
        with pytest.raises(ValueError):
            fn(wrong_shape, coeffs, (6, 6))
        with pytest.raises(ValueError):
            fn({}, {(1, 1): 0.0}, (2, 2))


def test_combine_peak_memory_is_a_few_target_arrays():
    """The 1025^2 combination must not hold one target-sized array per
    source grid (the retired plan cached four per source, ~235 MiB)."""
    import tracemalloc
    from repro.sparsegrid import cached_scheme, nodal_of
    scheme = cached_scheme(10, 4)
    parts = {g.index: nodal_of(lambda x, y: x + y * y, g.index)
             for g in scheme.grids}
    coeffs = {g.index: g.coeff for g in scheme.grids}
    tracemalloc.start()
    try:
        out = combine_nodal(parts, coeffs, (10, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1025, 1025)
    assert peak < 4 * out.nbytes
