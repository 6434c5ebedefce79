"""Serial Lax-Wendroff stepper: convergence, invariants, nodal views."""

import numpy as np
import pytest

from repro.pde import lax_wendroff
from repro.pde import (AdvectionProblem, SerialAdvectionSolver,
                       courant_numbers, l1, lw_step_interior,
                       lw_step_periodic, nodal_view, periodic_from_initial,
                       periodic_from_nodal)


def test_constant_field_is_fixed_point():
    u = np.full((8, 8), 3.5)
    out = lw_step_periodic(u, 0.3, 0.2)
    assert np.allclose(out, 3.5)


def test_zero_courant_is_identity():
    rng = np.random.default_rng(0)
    u = rng.random((8, 16))
    assert np.allclose(lw_step_periodic(u, 0.0, 0.0), u)


def test_mass_conservation():
    """Lax-Wendroff on a periodic domain conserves the discrete mean."""
    rng = np.random.default_rng(1)
    u = rng.random((16, 8))
    mean0 = u.mean()
    for _ in range(10):
        u = lw_step_periodic(u, 0.4, 0.3)
    assert u.mean() == pytest.approx(mean0, rel=1e-12)


def test_second_order_convergence():
    prob = AdvectionProblem(velocity=(1.0, 0.5))
    errs = []
    for lev in (4, 5, 6):
        s = SerialAdvectionSolver(prob, lev, lev, prob.stable_dt(lev))
        s.step(32)
        errs.append(l1(s.nodal(), s.exact_nodal()))
    # at least 2nd order: each refinement cuts error by >= ~4x
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_exact_transport_one_period():
    """With cx=1 (cy=0) Lax-Wendroff is exact: one step shifts one cell."""
    prob = AdvectionProblem(velocity=(1.0, 0.0))
    n = 16
    dt = 1.0 / n  # cx = 1
    s = SerialAdvectionSolver(prob, 4, 4, dt)
    u0 = s.u.copy()
    s.step(n)  # full period
    assert np.allclose(s.u, u0, atol=1e-10)


def test_anisotropic_grid_shapes():
    prob = AdvectionProblem()
    s = SerialAdvectionSolver(prob, 3, 5, prob.stable_dt(5))
    assert s.u.shape == (8, 32)
    assert s.nodal().shape == (9, 33)


def test_nodal_view_roundtrip():
    rng = np.random.default_rng(2)
    u = rng.random((8, 4))
    nod = nodal_view(u)
    assert nod.shape == (9, 5)
    assert np.allclose(nod[-1, :-1], u[0, :])
    assert np.allclose(nod[:-1, -1], u[:, 0])
    assert nod[-1, -1] == u[0, 0]
    assert np.allclose(periodic_from_nodal(nod), u)


def test_courant_numbers():
    cx, cy = courant_numbers((2.0, -1.0), 3, 4, 0.01)
    assert cx == pytest.approx(2.0 * 0.01 * 8)
    assert cy == pytest.approx(-1.0 * 0.01 * 16)


def test_interior_stencil_matches_periodic():
    """Padded-interior update equals the roll-based periodic update."""
    rng = np.random.default_rng(3)
    u = rng.random((8, 8))
    full = lw_step_periodic(u, 0.3, 0.25)
    w = np.empty((10, 10))
    w[1:-1, 1:-1] = u
    w[0, 1:-1] = u[-1, :]
    w[-1, 1:-1] = u[0, :]
    w[:, 0] = w[:, -2]
    w[:, -1] = w[:, 1]
    inner = lw_step_interior(w, 0.3, 0.25)
    assert np.allclose(inner, full)


def test_time_property():
    prob = AdvectionProblem()
    s = SerialAdvectionSolver(prob, 4, 4, 0.01)
    s.step(7)
    assert s.time == pytest.approx(0.07)


def test_periodic_from_initial_drops_boundary():
    prob = AdvectionProblem()
    u = periodic_from_initial(prob, 3, 4)
    assert u.shape == (8, 16)
    nod = nodal_view(u)
    xs = np.arange(9) / 8
    ys = np.arange(17) / 16
    assert np.allclose(nod, prob.initial(xs[:, None], ys[None, :]))


# ----------------------------------------------------------------------
# the one stencil kernel
# ----------------------------------------------------------------------

def padded(u):
    return lax_wendroff.fill_periodic_halo(
        u, np.empty((u.shape[0] + 2, u.shape[1] + 2), dtype=u.dtype))


def docstring_formula(w, cx, cy):
    """The module docstring's difference form, evaluated as written in
    whatever precision ``w`` carries."""
    half, quarter, two = w.dtype.type(0.5), w.dtype.type(0.25), \
        w.dtype.type(2.0)
    cx, cy = w.dtype.type(cx), w.dtype.type(cy)
    u = w[1:-1, 1:-1]
    uxp, uxm, uyp, uym = w[2:, 1:-1], w[:-2, 1:-1], w[1:-1, 2:], w[1:-1, :-2]
    return (u - half * cx * (uxp - uxm) - half * cy * (uyp - uym)
            + half * cx * cx * (uxp - two * u + uxm)
            + half * cy * cy * (uyp - two * u + uym)
            + quarter * cx * cy * (w[2:, 2:] - w[2:, :-2]
                                   - w[:-2, 2:] + w[:-2, :-2]))


@pytest.mark.parametrize("cx,cy", [(0.3, 0.25), (-0.4, 0.15), (0.05, -0.6),
                                   (0.2, 0.0)])
def test_kernel_matches_extended_precision_formula(cx, cy):
    rng = np.random.default_rng(4)
    w = padded(rng.random((24, 40)) * 2.0 - 1.0)
    exact = docstring_formula(w.astype(np.longdouble), cx, cy)
    out = lw_step_interior(w, cx, cy)
    ulp = np.finfo(float).eps * np.abs(w).max()
    assert float(np.abs(out - exact).max()) <= 4 * ulp


def test_row_blocking_does_not_change_a_bit(monkeypatch):
    rng = np.random.default_rng(5)
    w = padded(rng.random((37, 16)))
    whole = lw_step_interior(w, 0.3, 0.25)
    for points in (16, 5 * 16, 36 * 16, 7):   # 1 row, 5 rows, 36 + 1, < a row
        monkeypatch.setattr(lax_wendroff, "_BLOCK_POINTS", points)
        assert np.array_equal(lw_step_interior(w, 0.3, 0.25), whole)


def test_every_entry_point_is_the_same_arithmetic():
    rng = np.random.default_rng(6)
    u = rng.random((16, 8))
    fresh = lw_step_periodic(u, 0.3, 0.25)
    assert np.array_equal(lw_step_interior(padded(u), 0.3, 0.25), fresh)
    out, work, scratch = np.empty_like(u), np.empty((18, 10)), \
        np.empty_like(u)
    lax_wendroff.lw_step_periodic_into(u, 0.3, 0.25, out, work, scratch)
    assert np.array_equal(out, fresh)
    # out may alias the state: it is staged through ``work`` first
    state = u.copy()
    lax_wendroff.lw_step_periodic_into(state, 0.3, 0.25, state, work, scratch)
    assert np.array_equal(state, fresh)
    # and the problem object reaches the same kernel
    prob = AdvectionProblem(velocity=(1.0, 0.5))
    cx, cy = courant_numbers(prob.velocity, 4, 3, 0.01)
    assert np.array_equal(
        prob.step_periodic(u, 4, 3, 0.01, out=out, work=work,
                           scratch=scratch),
        lw_step_periodic(u, cx, cy))
