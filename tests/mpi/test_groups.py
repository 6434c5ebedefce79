"""Group algebra (MPI_Group_*), incl. hypothesis property tests."""

import pytest
from hypothesis import given, strategies as st

from repro.mpi import IDENT, SIMILAR, UNEQUAL, UNDEFINED
from repro.mpi.errors import RankError
from repro.mpi.group import Group
from repro.mpi.process import Proc
from repro.machine import Host


def mk_procs(n):
    host = Host("h", slots=1000)
    return [Proc(f"p{i}", host) for i in range(n)]


def test_compare_ident_similar_unequal():
    procs = mk_procs(4)
    g1 = Group(procs)
    g2 = Group(procs)
    g3 = Group(reversed(procs))
    g4 = Group(procs[:2])
    assert g1.compare(g2) == IDENT
    assert g1.compare(g3) == SIMILAR
    assert g1.compare(g4) == UNEQUAL


def test_difference_keeps_my_order():
    procs = mk_procs(5)
    g = Group(procs)
    other = Group([procs[1], procs[3]])
    diff = g.difference(other)
    assert [p.uid for p in diff] == [procs[0].uid, procs[2].uid, procs[4].uid]


def test_translate_ranks_fig6_usage():
    """The paper's Fig. 6: translate failed-group ranks into the old group."""
    procs = mk_procs(6)
    old = Group(procs)
    shrunk = Group([p for i, p in enumerate(procs) if i not in (2, 4)])
    failed = old.difference(shrunk)
    assert failed.size == 2
    ranks = failed.translate_ranks(range(failed.size), old)
    assert ranks == [2, 4]


def test_translate_unmatched_gives_undefined():
    procs = mk_procs(3)
    g1 = Group(procs[:2])
    g2 = Group(procs[2:])
    assert g1.translate_ranks([0, 1], g2) == [UNDEFINED, UNDEFINED]


def test_translate_out_of_range():
    g = Group(mk_procs(2))
    with pytest.raises(RankError):
        g.translate_ranks([5], g)


def test_incl_excl():
    procs = mk_procs(5)
    g = Group(procs)
    sub = g.incl([4, 0, 2])
    assert [p.uid for p in sub] == [procs[4].uid, procs[0].uid, procs[2].uid]
    rest = g.excl([1, 3])
    assert [p.uid for p in rest] == [procs[0].uid, procs[2].uid, procs[4].uid]
    with pytest.raises(RankError):
        g.incl([9])
    with pytest.raises(RankError):
        g.excl([9])


def test_union_intersection():
    procs = mk_procs(4)
    a = Group(procs[:3])
    b = Group(procs[2:])
    assert [p.uid for p in a.union(b)] == [p.uid for p in procs]
    assert [p.uid for p in a.intersection(b)] == [procs[2].uid]


def test_rank_of_and_contains():
    procs = mk_procs(3)
    g = Group(procs)
    assert g.rank_of(procs[1]) == 1
    assert procs[1] in g
    outsider = mk_procs(1)[0]
    assert g.rank_of(outsider) == UNDEFINED
    assert outsider not in g


def test_duplicates_rejected():
    p = mk_procs(1)[0]
    with pytest.raises(RankError):
        Group([p, p])


def test_group_hash_eq():
    procs = mk_procs(3)
    assert Group(procs) == Group(procs)
    assert hash(Group(procs)) == hash(Group(procs))
    assert Group(procs) != Group(procs[:2])


@given(st.sets(st.integers(0, 14), max_size=15),
       st.sets(st.integers(0, 14), max_size=15))
def test_group_algebra_properties(a_idx, b_idx):
    procs = mk_procs(15)
    a = Group(procs[i] for i in sorted(a_idx))
    b = Group(procs[i] for i in sorted(b_idx))
    diff = a.difference(b)
    inter = a.intersection(b)
    # difference and intersection partition a
    assert diff.size + inter.size == a.size
    assert all(p not in b for p in diff)
    assert all(p in b for p in inter)
    # union contains both
    u = a.union(b)
    assert all(p in u for p in a)
    assert all(p in u for p in b)
    assert u.size == len(a_idx | b_idx)
    # compare is reflexive-IDENT
    assert a.compare(a) == IDENT


# linear-scan reference definitions of the indexed lookups
def ref_rank_of(group, proc):
    for i, p in enumerate(group.procs):
        if p.uid == proc.uid:
            return i
    return UNDEFINED


def ref_compare(a, b):
    mine, theirs = [p.uid for p in a.procs], [p.uid for p in b.procs]
    if mine == theirs:
        return IDENT
    return SIMILAR if sorted(mine) == sorted(theirs) else UNEQUAL


@st.composite
def group_pairs(draw):
    """Two ordered groups over one pool of 10 processes; the second is a
    permutation of the first about a third of the time."""
    order = draw(st.lists(st.integers(0, 9), unique=True, max_size=10))
    other = draw(st.one_of(st.permutations(order),
                           st.lists(st.integers(0, 9), unique=True,
                                    max_size=10)))
    return order, other


@given(group_pairs())
def test_indexed_lookups_equal_linear_scans(pair):
    procs = mk_procs(10)
    a = Group(procs[i] for i in pair[0])
    b = Group(procs[i] for i in pair[1])
    assert a.compare(b) == ref_compare(a, b)
    assert b.compare(a) == ref_compare(b, a)
    for p in procs:
        assert a.rank_of(p) == ref_rank_of(a, p)
        assert (p in a) == (ref_rank_of(a, p) != UNDEFINED)
    assert [p.uid for p in a.difference(b)] == \
        [p.uid for p in a.procs if ref_rank_of(b, p) == UNDEFINED]
    assert a.translate_ranks(range(a.size), b) == \
        [ref_rank_of(b, p) for p in a.procs]
