"""Process layouts: the paper's 8/4/2/1 rule and the Table I sweep."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Layout
from repro.sparsegrid import CombinationScheme


def test_paper_layout_counts_fig9():
    """Fig. 9: 8 per diagonal (incl. duplicates), 4 lower, 2/1 extras."""
    cr = Layout.paper(CombinationScheme(13, 4), 8)
    assert cr.total_procs == 44                      # P_c
    rc = Layout.paper(CombinationScheme(13, 4, duplicates=True), 8)
    assert rc.total_procs == 76                      # P_r
    ac = Layout.paper(CombinationScheme(13, 4, extra_layers=2), 8)
    assert ac.total_procs == 49                      # P_a
    counts = [a.n_procs for a in ac.assignments]
    assert counts == [8, 8, 8, 8, 4, 4, 4, 2, 2, 1]


@pytest.mark.parametrize("p,total", [(4, 19), (8, 38), (16, 76), (32, 152),
                                     (64, 304)])
def test_sweep_layout_hits_table1_core_counts(p, total):
    layout = Layout.sweep(CombinationScheme(13, 4), p)
    assert layout.total_procs == total


def test_ranks_contiguous_and_rank0_is_controller():
    layout = Layout.paper(CombinationScheme(8, 4), 4)
    cursor = 0
    for a in layout.assignments:
        assert a.ranks == tuple(range(cursor, cursor + a.n_procs))
        cursor += a.n_procs
    assert layout.gid_of(0) == 0
    assert layout.root_rank(0) == 0


def test_gid_of_covers_every_rank():
    layout = Layout.paper(CombinationScheme(8, 4, duplicates=True), 4)
    for a in layout.assignments:
        for r in a.ranks:
            assert layout.gid_of(r) == a.gid
            assert r in layout.group_ranks(a.gid)


def test_grids_of_ranks():
    layout = Layout.paper(CombinationScheme(8, 4), 4)
    gids = layout.grids_of_ranks([0, 1, 5, 17])
    assert gids == sorted(set(gids))
    assert layout.gid_of(17) in gids


def test_conflict_pairs_forwarded():
    layout = Layout.paper(CombinationScheme(8, 4, duplicates=True), 4)
    assert layout.conflict_pairs_ranks() == \
        layout.scheme.rc_conflict_pairs()


def test_too_many_procs_for_grid_rejected():
    scheme = CombinationScheme(4, 4)  # smallest grids 2^1 x ...
    with pytest.raises(ValueError):
        Layout.from_counts(scheme, {g.gid: 1000 for g in scheme.grids})


def test_zero_procs_rejected():
    scheme = CombinationScheme(8, 4)
    counts = {g.gid: 1 for g in scheme.grids}
    counts[0] = 0
    with pytest.raises(ValueError):
        Layout.from_counts(scheme, counts)


def test_describe():
    layout = Layout.paper(CombinationScheme(8, 4), 2)
    text = layout.describe()
    assert "grid  0" in text and "11 processes" in text


def test_survivors_renumber_and_keep_an_empty_group():
    """Without adoption a grid that lost its only member stays empty: it
    has no root, and the survivors are renumbered in their old order."""
    layout = Layout.paper(CombinationScheme(8, 4), 2)
    assert layout.adoptions == {}
    lone = next(a for a in layout.assignments if a.n_procs == 1)
    dead = lone.ranks[0]
    members = [r for r in range(layout.total_procs) if r != dead]
    after = layout.survivors(members, adopt_orphans=False)
    assert after.adoptions == {} and after.total_procs == len(members)
    assert after.group_ranks(lone.gid) == ()
    with pytest.raises(ValueError, match="no surviving processes"):
        after.root_rank(lone.gid)
    assert "no survivors" in after.describe()
    for r, m in enumerate(members):
        assert after.gid_of(r) == layout.gid_of(m)


def test_survivors_memoised_per_member_list():
    """Every survivor of one repair asks with an equal member list and
    shares one layout; ``adopt_orphans`` is part of the key, and the cache
    is bounded."""
    from repro.core.layout import _survivor_layout

    layout = Layout.paper(CombinationScheme(8, 4), 2)
    lone = next(a for a in layout.assignments if a.n_procs == 1)
    members = [r for r in range(layout.total_procs) if r != lone.ranks[0]]
    kept = layout.survivors(members, adopt_orphans=False)
    again = layout.survivors(list(members), adopt_orphans=False)
    assert again is kept
    adopted = layout.survivors(tuple(members), adopt_orphans=True)
    assert adopted is not kept
    assert adopted.adoptions and not kept.adoptions
    assert adopted.group_ranks(lone.gid) != ()
    fresh = Layout.paper(CombinationScheme(8, 4), 2)    # equal, not cached
    twin = fresh.survivors(members, adopt_orphans=True)
    assert [a.ranks for a in twin.assignments] == \
        [a.ranks for a in adopted.assignments]
    assert twin.adoptions == adopted.adoptions
    assert _survivor_layout.cache_info().maxsize is not None


@given(st.integers(1, 64).filter(lambda p: p & (p - 1) == 0))
@settings(max_examples=20)
def test_paper_rule_halves_per_layer(p):
    scheme = CombinationScheme(10, 4, duplicates=True, extra_layers=2)
    layout = Layout.paper(scheme, p)
    for a in layout.assignments:
        g = scheme[a.gid]
        assert a.n_procs == max(1, p >> g.layer)
    assert layout.total_procs == sum(a.n_procs for a in layout.assignments)
