"""Resampling between anisotropic nodal grids."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparsegrid import axis_points, nodal_of, resample

levels = st.tuples(st.integers(0, 5), st.integers(0, 5))


def f_bilinear(x, y):
    return 2.0 + x - 3.0 * y + 0.5 * x * y


def test_axis_points():
    assert np.allclose(axis_points(2), [0, 0.25, 0.5, 0.75, 1.0])


def test_nodal_of_shape():
    v = nodal_of(f_bilinear, (3, 2))
    assert v.shape == (9, 5)


def test_restriction_is_exact_sampling():
    v = nodal_of(f_bilinear, (4, 4))
    r = resample(v, (4, 4), (2, 3))
    assert np.allclose(r, nodal_of(f_bilinear, (2, 3)), atol=1e-14)


def test_identity_resample_copies():
    v = nodal_of(f_bilinear, (3, 3))
    r = resample(v, (3, 3), (3, 3))
    assert np.allclose(r, v)
    r[0, 0] = 99
    assert v[0, 0] != 99  # copy, not view


def test_prolongation_bilinear_exact_for_bilinear():
    v = nodal_of(f_bilinear, (2, 2))
    up = resample(v, (2, 2), (5, 4))
    assert np.allclose(up, nodal_of(f_bilinear, (5, 4)), atol=1e-13)


def test_mixed_restrict_and_prolong():
    v = nodal_of(f_bilinear, (4, 1))
    out = resample(v, (4, 1), (2, 3))
    assert np.allclose(out, nodal_of(f_bilinear, (2, 3)), atol=1e-13)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        resample(np.zeros((4, 4)), (2, 2), (1, 1))


def test_round_trip_restrict_of_prolong_is_identity():
    rng = np.random.default_rng(0)
    v = rng.random((5, 9))  # grid (2, 3)
    up = resample(v, (2, 3), (4, 5))
    back = resample(up, (4, 5), (2, 3))
    assert np.allclose(back, v, atol=1e-13)


@given(levels, levels)
@settings(max_examples=40, deadline=None)
def test_resample_preserves_constants(src, dst):
    v = np.full(((1 << src[0]) + 1, (1 << src[1]) + 1), 3.25)
    out = resample(v, src, dst)
    assert out.shape == ((1 << dst[0]) + 1, (1 << dst[1]) + 1)
    assert np.allclose(out, 3.25)


@given(levels, levels)
@settings(max_examples=40, deadline=None)
def test_resample_within_data_range(src, dst):
    rng = np.random.default_rng(src[0] * 7 + dst[1])
    v = rng.random(((1 << src[0]) + 1, (1 << src[1]) + 1))
    out = resample(v, src, dst)
    assert out.min() >= v.min() - 1e-12
    assert out.max() <= v.max() + 1e-12


@given(levels)
@settings(max_examples=30, deadline=None)
def test_prolongation_interpolates_nodes_exactly(src):
    """Source nodes are a subset of any finer grid: values must carry over."""
    rng = np.random.default_rng(42)
    v = rng.random(((1 << src[0]) + 1, (1 << src[1]) + 1))
    dst = (src[0] + 1, src[1] + 2)
    out = resample(v, src, dst)
    sx = 1 << (dst[0] - src[0])
    sy = 1 << (dst[1] - src[1])
    assert np.allclose(out[::sx, ::sy], v, atol=1e-13)


def test_restriction_is_bitwise_stride_sampling_and_owned():
    rng = np.random.default_rng(1)
    v = rng.random((33, 17))  # grid (5, 4)
    keep = v.copy()
    for dst, expected in (((3, 2), v[::4, ::4]), ((5, 1), v[:, ::8]),
                          ((0, 4), v[::32, :])):
        r = resample(v, (5, 4), dst)
        assert np.array_equal(r, expected)
        assert r.flags.owndata and r.flags.c_contiguous
        r[:] = -1.0
        assert np.array_equal(v, keep)


def test_prolongation_matches_direct_bilinear_weights():
    """Level-by-level midpoints are bilinear interpolation across all the
    levels at once, up to rounding."""
    rng = np.random.default_rng(2)
    v = rng.random((5, 3))  # grid (2, 1)
    out = resample(v, (2, 1), (5, 4))
    xs, ys = axis_points(5) * 4, axis_points(4) * 2
    i = np.minimum(xs.astype(int), 3)
    j = np.minimum(ys.astype(int), 1)
    wx, wy = (xs - i)[:, None], (ys - j)[None, :]
    direct = ((1 - wx) * (1 - wy) * v[np.ix_(i, j)]
              + wx * (1 - wy) * v[np.ix_(i + 1, j)]
              + (1 - wx) * wy * v[np.ix_(i, j + 1)]
              + wx * wy * v[np.ix_(i + 1, j + 1)])
    assert out.flags.owndata and out.flags.c_contiguous
    assert np.allclose(out, direct, rtol=0, atol=4 * np.finfo(float).eps)


def test_resample_caller_cannot_corrupt_cache():
    """Nothing is shared between calls: a caller scribbling on its result
    must not affect the source or later resamples."""
    rng = np.random.default_rng(0)
    v = rng.random((17, 17))
    first = resample(v, (4, 4), (3, 5))
    expected = first.copy()
    first[:] = -1.0
    again = resample(v, (4, 4), (3, 5))
    assert np.array_equal(again, expected)
