"""Serial Lax-Wendroff stepper: convergence, invariants, nodal views."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.pde import lax_wendroff, parallel_solver
from repro.pde import (AdvectionProblem, DistributedAdvectionSolver,
                       SerialAdvectionSolver, courant_numbers, l1,
                       lw_step_interior, lw_step_periodic, nodal_view,
                       periodic_from_initial, periodic_from_nodal)


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
    w = np.empty((u.shape[0] + 2, u.shape[1] + 2), dtype=u.dtype)
    w[1:-1, 1:-1] = u
    return lax_wendroff.wrap_halo(w)


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


def assert_matches_formula(w, cx, cy):
    exact = docstring_formula(w.astype(np.longdouble), cx, cy)
    out = lw_step_interior(w, cx, cy)
    ulp = np.finfo(float).eps * np.abs(w).max()
    assert float(np.abs(out - exact).max()) <= 4 * ulp


@pytest.mark.parametrize("cx,cy", [(0.3, 0.25), (-0.4, 0.15), (0.05, -0.6),
                                   (0.2, 0.0)])
def test_kernel_matches_extended_precision_formula(cx, cy):
    rng = np.random.default_rng(4)
    assert_matches_formula(padded(rng.random((24, 40)) * 2.0 - 1.0), cx, cy)


@pytest.mark.parametrize("shape", [(1, 40), (24, 1), (1, 1)])
def test_one_row_and_one_column_blocks_match_the_formula(shape):
    """The flat range of a one-row block is exactly that row; a
    one-column block computes its ghost columns too, which must not leak
    into the interior."""
    rng = np.random.default_rng(7)
    u = rng.random(shape) * 2.0 - 1.0
    assert_matches_formula(padded(u), 0.3, -0.45)
    assert lw_step_interior(padded(u), 0.3, -0.45).shape == shape


def test_flat_blocking_does_not_change_a_bit(monkeypatch):
    rng = np.random.default_rng(5)
    w = padded(rng.random((37, 16)))
    s = w.shape[1]
    whole = lw_step_interior(w, 0.3, 0.25).copy()
    for points in (1, 7, s - 1, s, s + 1, 5 * s, w.size + 1):
        monkeypatch.setattr(lax_wendroff, "_BLOCK_POINTS", points)
        out = np.full_like(w, np.nan)     # a skipped point stays NaN
        lax_wendroff.lw_step_into(w, 0.3, 0.25, out,
                                  lax_wendroff.scratch_for(w))
        assert np.array_equal(out[1:-1, 1:-1], whole), points


def test_non_contiguous_buffers_are_rejected():
    w = padded(np.random.default_rng(8).random((8, 6)))
    out, scratch = np.empty_like(w), lax_wendroff.scratch_for(w)
    wide = np.empty((w.shape[0], 2 * w.shape[1]))
    for bad_w, bad_out in ((np.asfortranarray(w), out), (w, out.T.copy().T),
                           (wide[:, ::2], out), (w, wide[:, :w.shape[1]]),
                           (w, w), (w, np.empty((8, 6)))):
        with pytest.raises(ValueError):
            lax_wendroff.lw_step_into(bad_w, 0.3, 0.25, bad_out, scratch)
    with pytest.raises(ValueError):
        lax_wendroff.lw_step_into(w, 0.3, 0.25, out, scratch.reshape(1, -1))


class _NaNEmpty:
    """numpy, except that fresh buffers start out as NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, np.nan, dtype)

    @staticmethod
    def empty_like(a):
        return np.full_like(a, np.nan)


def test_poisoned_buffers_change_nothing(monkeypatch):
    """Every buffer the solvers allocate (state ghosts, padded output,
    scratch) starts as NaN: after 16 steps the state is finite and
    bit-equal to a run on clean buffers."""
    prob = AdvectionProblem(velocity=(1.0, 0.5))
    dt = prob.stable_dt(6)

    def run():
        serial = SerialAdvectionSolver(prob, 6, 4, dt)
        serial.step(16)
        group = [DistributedAdvectionSolver(
            None, SimpleNamespace(size=1, rank=0), prob, lx, ly, dt)
            for lx, ly in ((6, 4), (4, 6))]
        return [serial.u.copy()] + [
            sol._advance_group([sol.u], 16)[0] for sol in group]

    clean = run()
    for module in (lax_wendroff, parallel_solver):
        monkeypatch.setattr(module, "np", _NaNEmpty())
    assert np.isnan(lax_wendroff.scratch_for(np.zeros((3, 3)))).all()
    for got, ref in zip(run(), clean):
        assert np.isfinite(got).all() and np.array_equal(got, ref)


def test_every_entry_point_is_the_same_arithmetic():
    rng = np.random.default_rng(6)
    u = rng.random((16, 8))
    fresh = lw_step_periodic(u, 0.3, 0.25)
    assert np.array_equal(lw_step_interior(padded(u), 0.3, 0.25), fresh)
    w = padded(u)
    out, scratch = np.empty_like(w), lax_wendroff.scratch_for(w)
    assert lax_wendroff.lw_step_into(w, 0.3, 0.25, out, scratch) is out
    assert np.array_equal(out[1:-1, 1:-1], fresh)
    # the problem object reaches the same kernel, and the serial solver
    # steps through it
    prob = AdvectionProblem(velocity=(1.0, 0.5))
    cx, cy = courant_numbers(prob.velocity, 4, 3, 0.01)
    prob.step_plan(w, 4, 3, 0.01, out=out, scratch=scratch)()
    assert np.array_equal(out[1:-1, 1:-1], lw_step_periodic(u, cx, cy))
    s = SerialAdvectionSolver(prob, 4, 3, 0.01)
    ref = lw_step_periodic(s.u, cx, cy)
    s.step()
    assert np.array_equal(s.u, ref)
    # transposed swaps the Courant numbers, nothing else
    t_out = np.empty((10, 18))
    prob.step_plan(padded(u.T.copy()), 4, 3, 0.01, transposed=True,
                   out=t_out, scratch=scratch)()
    assert np.array_equal(t_out[1:-1, 1:-1], lw_step_periodic(u.T, cy, cx))
