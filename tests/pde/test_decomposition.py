"""Slab decomposition properties and the process-grid choice."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pde import SlabDecomposition, choose_dims
from repro.pde.decomposition import dims_create


def test_bounds_cover_domain():
    d = SlabDecomposition(10, 3)
    assert [d.bounds(p) for p in range(3)] == [(0, 4), (4, 7), (7, 10)]
    assert d.sizes() == [4, 3, 3]


def test_even_split():
    d = SlabDecomposition(8, 4)
    assert d.sizes() == [2, 2, 2, 2]


def test_neighbours_periodic():
    d = SlabDecomposition(8, 4)
    assert d.neighbours(0) == (3, 1)
    assert d.neighbours(3) == (2, 0)


def test_too_many_parts_rejected():
    with pytest.raises(ValueError):
        SlabDecomposition(3, 4)
    with pytest.raises(ValueError):
        SlabDecomposition(4, 0)


def test_bounds_out_of_range():
    d = SlabDecomposition(4, 2)
    with pytest.raises(IndexError):
        d.bounds(2)


def test_choose_dims_1d_is_a_ring_along_the_longer_axis():
    assert choose_dims(4, 5, 3, "1d") == (4, 1)
    assert choose_dims(4, 3, 5, "1d") == (1, 4)
    assert choose_dims(4, 4, 4, "1d") == (4, 1)     # ties -> x


def test_choose_dims_orients_to_grid():
    assert choose_dims(4, 5, 3, "2d") == (2, 2)
    px, py = choose_dims(8, 6, 3, "2d")
    assert px >= py and px * py == 8
    px, py = choose_dims(8, 3, 6, "2d")
    assert py >= px
    # a prime count has one row, along the longer axis like "1d"
    assert choose_dims(3, 5, 4, "2d") == choose_dims(3, 5, 4, "1d") == (3, 1)
    assert choose_dims(3, 4, 5, "2d") == choose_dims(3, 4, 5, "1d") == (1, 3)


def test_choose_dims_never_overdecomposes():
    px, py = choose_dims(8, 2, 6, "2d")   # x axis has only 4 points
    assert px <= 4 and px * py == 8
    assert choose_dims(4, 0, 5, "2d") == (1, 4)


def test_choose_dims_rejects():
    with pytest.raises(ValueError, match="cannot fit 3 procs"):
        choose_dims(3, 1, 0, "2d")        # 3 parts, 2 x points, 1 y point
    with pytest.raises(ValueError, match="unknown decomposition"):
        choose_dims(4, 4, 4, "3d")


def test_dims_create_balanced():
    assert dims_create(4, 2) == [2, 2]
    assert dims_create(12, 2) == [4, 3]
    assert dims_create(8, 3) == [2, 2, 2]
    assert dims_create(7, 2) == [7, 1]
    assert dims_create(1, 2) == [1, 1]


def test_dims_create_respects_fixed_entries():
    assert dims_create(12, 2, [3, 0]) == [3, 4]
    assert dims_create(12, 2, [0, 6]) == [2, 6]
    with pytest.raises(ValueError):
        dims_create(12, 2, [5, 0])     # 5 does not divide 12
    with pytest.raises(ValueError):
        dims_create(12, 2, [3, 3])     # fixed product mismatch


@given(st.integers(1, 256), st.integers(1, 3))
@settings(max_examples=80)
def test_dims_create_product_and_order(n, ndims):
    dims = dims_create(n, ndims)
    prod = 1
    for d in dims:
        prod *= d
    assert prod == n
    assert all(d >= 1 for d in dims)
    # as-square-as-possible: max/min ratio no worse than n itself
    assert max(dims) <= n


@given(st.integers(1, 200), st.integers(1, 32))
def test_partition_properties(n, p):
    if p > n:
        p = n
    d = SlabDecomposition(n, p)
    sizes = d.sizes()
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1           # balanced
    # contiguous, ordered, non-overlapping
    cursor = 0
    for part in range(p):
        lo, hi = d.bounds(part)
        assert lo == cursor and hi > lo
        cursor = hi
    assert cursor == n
