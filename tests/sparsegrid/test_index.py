"""Combination scheme structure (Fig. 1)."""

import pytest

from repro.sparsegrid import (ROLE_DIAGONAL, ROLE_DUPLICATE, ROLE_EXTRA,
                              ROLE_LOWER, CombinationScheme, layer_indices)


def test_layer_indices_paper_n13_l4():
    assert layer_indices(13, 4, 0) == [(10, 13), (11, 12), (12, 11), (13, 10)]
    assert layer_indices(13, 4, 1) == [(10, 12), (11, 11), (12, 10)]
    assert layer_indices(13, 4, 2) == [(10, 11), (11, 10)]
    assert layer_indices(13, 4, 3) == [(10, 10)]
    assert layer_indices(13, 4, 4) == []


def test_cr_scheme_has_seven_grids():
    s = CombinationScheme(13, 4)
    assert len(s) == 7
    assert len(s.diagonal) == 4
    assert len(s.lower) == 3
    assert not s.duplicates_list and not s.extra
    assert [g.gid for g in s.grids] == list(range(7))


def test_rc_scheme_matches_fig1_ids():
    """Fig. 1: IDs 0-6 primary, 7-10 duplicates of 0-3."""
    s = CombinationScheme(13, 4, duplicates=True)
    assert len(s) == 11
    for d in range(4):
        dup = s[7 + d]
        assert dup.role == ROLE_DUPLICATE
        assert dup.index == s[d].index
        assert dup.partner == d
        assert s[d].partner == 7 + d


def test_ac_scheme_matches_fig1_ids():
    """Fig. 1: IDs 11-13 are the two extra layers (here 7-9 without dups)."""
    s = CombinationScheme(13, 4, extra_layers=2)
    assert len(s) == 10
    extras = s.extra
    assert [g.index for g in extras] == [(10, 11), (11, 10), (10, 10)]
    assert [g.layer for g in extras] == [2, 2, 3]
    assert all(g.coeff == 0.0 for g in extras)


def test_classic_coefficients_bands():
    s = CombinationScheme(8, 4)
    coeffs = s.classic_coefficients()
    for g in s.diagonal:
        assert coeffs[g.gid] == +1.0
    for g in s.lower:
        assert coeffs[g.gid] == -1.0
    assert len(coeffs) == 7


def test_resample_sources_match_paper():
    """Sec. II-D: 0<->7, 1<->8, 2<->9, 3<->10; 4 from 1, 5 from 2, 6 from 3."""
    s = CombinationScheme(13, 4, duplicates=True)
    expect = {0: 7, 7: 0, 1: 8, 8: 1, 2: 9, 9: 2, 3: 10, 10: 3,
              4: 1, 5: 2, 6: 3}
    for gid, src in expect.items():
        assert s.resample_source(gid) == src


def test_lower_resample_source_is_superset_grid():
    s = CombinationScheme(13, 4, duplicates=True)
    for lower in s.lower:
        src = s[s.resample_source(lower.gid)]
        assert src.index[0] >= lower.index[0]
        assert src.index[1] >= lower.index[1]


def test_conflict_pairs_match_paper():
    """Sec. III: not 3&6, 2&5, 1&4, 0&7, 1&8, 2&9, 3&10 simultaneously."""
    s = CombinationScheme(13, 4, duplicates=True)
    assert s.rc_conflict_pairs() == [(0, 7), (1, 4), (1, 8), (2, 5), (2, 9),
                                     (3, 6), (3, 10)]


def test_no_resample_source_without_duplicates():
    s = CombinationScheme(8, 4)
    assert s.resample_source(0) is None      # diagonal, no duplicate
    assert s.resample_source(4) == 1         # lower still resamples


def test_points_property():
    s = CombinationScheme(8, 4)
    g = s[0]  # (5, 8)
    assert g.points == 33 * 257
    assert g.level_x == 5 and g.level_y == 8


@pytest.mark.parametrize("n,l", [(4, 4), (6, 4), (8, 4), (10, 6), (7, 5)])
def test_general_levels_structure(n, l):
    s = CombinationScheme(n, l, duplicates=True, extra_layers=2)
    assert len(s.diagonal) == l
    assert len(s.lower) == l - 1
    assert len(s.duplicates_list) == l
    assert len(s.extra) == (l - 2) + (l - 3)
    for g in s.diagonal:
        assert sum(g.index) == 2 * n - l + 1
    for g in s.lower:
        assert sum(g.index) == 2 * n - l
    assert all(min(g.index) >= n - l + 1 for g in s.grids)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        CombinationScheme(3, 4)            # n < l
    with pytest.raises(ValueError):
        CombinationScheme(8, 1)            # level too small
    with pytest.raises(ValueError):
        CombinationScheme(8, 4, extra_layers=3)  # more layers than exist


def test_describe_lists_all_grids():
    s = CombinationScheme(8, 4, duplicates=True)
    text = s.describe()
    assert text.count("] diagonal") == 4
    assert text.count("] duplicate") == 4
    assert "(5, 8)" in text


def test_full_index():
    assert CombinationScheme(9, 4).full_index() == (9, 9)


def _old_resample_source(s, gid):
    """The per-call search the scheme's table replaced."""
    g = s[gid]
    if g.role in (ROLE_DIAGONAL, ROLE_DUPLICATE):
        return g.partner
    if g.role == ROLE_LOWER:
        pos = [x.gid for x in s.lower].index(gid)
        if pos + 1 < len(s.diagonal):
            return s.diagonal[pos + 1].gid
    return None


def test_rc_tables_equal_the_old_loops():
    """``resample_source`` and ``rc_conflict_pairs`` are built once per
    scheme; they equal the per-call loops on every scheme shape the
    techniques build (RC's duplicated ones among them)."""
    shapes = [(n, level, dup, extra) for level in range(2, 7)
              for n in range(level, 14) for dup in (False, True)
              for extra in range(level - 1)]
    for n, level, dup, extra in shapes:
        s = CombinationScheme(n, level, duplicates=dup, extra_layers=extra)
        old = {g.gid: _old_resample_source(s, g.gid) for g in s.grids}
        assert {g.gid: s.resample_source(g.gid) for g in s.grids} == old
        assert s.rc_conflict_pairs() == sorted(
            {(min(g, src), max(g, src)) for g, src in old.items()
             if src is not None})
