"""Alternate-combination coefficient computation after grid loss."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sparsegrid import (CombinationScheme, RecoveryInfeasibleError,
                              alternate_coefficients,
                              alternate_coefficients_for, scheme_floor,
                              survivors)


def ac_scheme(n=8):
    return CombinationScheme(n, 4, extra_layers=2)


def test_no_loss_reproduces_classic_support():
    s = ac_scheme()
    coeffs = alternate_coefficients_for(s, [])
    diag = {g.index for g in s.diagonal}
    lower = {g.index for g in s.lower}
    assert {k for k, v in coeffs.items() if v == 1.0} == diag
    assert {k for k, v in coeffs.items() if v == -1.0} == lower


@pytest.mark.parametrize("lost", [[0], [1], [2], [3], [4], [5], [6]])
def test_single_loss_supported_by_survivors(lost):
    s = ac_scheme()
    coeffs = alternate_coefficients_for(s, lost)
    surv = set(survivors(s, lost))
    assert sum(coeffs.values()) == pytest.approx(1.0)
    assert all(ix in surv for ix in coeffs)
    # the lost grid's index must not carry a coefficient
    lost_ix = s[lost[0]].index
    assert lost_ix not in coeffs


def test_adjacent_diagonal_pair_uses_extra_layer():
    s = ac_scheme()
    coeffs = alternate_coefficients_for(s, [1, 2])
    layer2 = {g.index for g in s.extra if g.layer == 2}
    assert any(ix in coeffs for ix in layer2)
    assert sum(coeffs.values()) == pytest.approx(1.0)


def test_three_adjacent_diagonals_greedy_fallback():
    s = ac_scheme()
    coeffs = alternate_coefficients_for(s, [0, 1, 2])
    surv = set(survivors(s, [0, 1, 2]))
    assert all(ix in surv for ix in coeffs)
    assert sum(coeffs.values()) == pytest.approx(1.0)


def test_lost_extra_layer_grid_is_harmless():
    s = ac_scheme()
    extras = [g.gid for g in s.extra]
    coeffs = alternate_coefficients_for(s, extras[:1])
    classic = alternate_coefficients_for(s, [])
    assert coeffs == classic


def test_scheme_floor():
    s = ac_scheme(8)
    assert scheme_floor(s) == (5, 5)


def test_survivors_collapse_duplicates():
    s = CombinationScheme(8, 4, duplicates=True)
    # lose the primary diagonal 0; its duplicate keeps the index alive
    surv = survivors(s, [0])
    assert s[0].index in surv


def test_no_survivors_is_infeasible():
    with pytest.raises(RecoveryInfeasibleError):
        alternate_coefficients([], (0, 0))


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(0, 9), max_size=5))
def test_any_loss_pattern_yields_valid_coefficients(lost):
    """Up to 5 of the 10 AC grids lost: coefficients always exist, sum to 1
    and are supported on survivors (the paper tests exactly this range)."""
    s = ac_scheme()
    if len(lost) >= len(s.diagonal) + len(s.lower) + len(s.extra):
        return
    coeffs = alternate_coefficients_for(s, lost)
    surv = set(survivors(s, lost))
    assert sum(coeffs.values()) == pytest.approx(1.0)
    assert all(ix in surv for ix in coeffs if coeffs[ix])


def test_memoised_coefficients_equal_a_fresh_solve():
    """Every one- to three-grid loss set of the paper's AC scheme (7, 4,
    two extra layers): the shared result equals a fresh
    ``alternate_coefficients_for``, key order included, and equal keys
    share one object."""
    from itertools import combinations

    from repro.sparsegrid import cached_scheme, combination_coefficients
    s = cached_scheme(7, 4, extra_layers=2)
    loss_sets = [lost for k in (1, 2, 3)
                 for lost in combinations(range(len(s)), k)]
    assert len(loss_sets) == 175
    for lost in loss_sets:
        try:
            fresh = alternate_coefficients_for(s, lost)
        except RecoveryInfeasibleError:
            with pytest.raises(RecoveryInfeasibleError):
                combination_coefficients(s, frozenset(lost))
            continue
        shared = combination_coefficients(s, frozenset(lost))
        assert list(shared.items()) == list(fresh.items())
        assert combination_coefficients(s, frozenset(reversed(lost))) \
            is shared
    classic = {g.index: g.coeff for g in s.grids if g.coeff}
    assert combination_coefficients(s, frozenset()) == classic
