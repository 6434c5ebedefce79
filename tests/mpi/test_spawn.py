"""Dynamic processes: spawn_multiple, intercomm merge, parent linkage."""

import pytest

from repro.machine import Host, Hostfile
from repro.machine.presets import IDEAL
from repro.mpi import RankError, Universe

from ..conftest import run_ranks as run


def test_spawn_creates_children_with_parent_intercomm():
    async def child(ctx):
        parent = ctx.get_parent()
        assert parent is not None
        assert parent.remote_size == 2  # the spawning group
        assert parent.local_size == 3
        return ("child", ctx.rank, ctx.size)

    async def main(ctx):
        inter = await ctx.comm.spawn_multiple(3, child)
        assert inter.remote_size == 3
        assert inter.local_size == 2
        return ("parent", ctx.rank)

    res, uni = run(2, main)
    assert res == [("parent", 0), ("parent", 1)]
    child_job = uni.jobs[1]
    assert child_job.results() == [("child", 0, 3), ("child", 1, 3),
                                   ("child", 2, 3)]


def test_initial_launch_has_no_parent():
    async def main(ctx):
        return ctx.get_parent() is None

    res, _ = run(2, main)
    assert all(res)


def test_launch_places_by_slot_around_spares_and_refuses_overflow():
    """Rank r lands on regular host r // slots wherever the spares sit in
    the hostfile; a full host or a rank past the last regular host still
    raises, with the same messages."""
    def hostfile():
        return Hostfile([Host("a", 2), Host("s0", 2, spare=True),
                         Host("b", 2), Host("s1", 2, spare=True),
                         Host("c", 2)])

    async def main(ctx):
        return None

    uni = Universe(IDEAL, hostfile=hostfile())
    job = uni.launch(5, main)
    assert [p.host.name for p in job.procs] == ["a", "a", "b", "b", "c"]
    assert [h.occupied for h in uni.hostfile] == [2, 0, 2, 0, 1]
    with pytest.raises(RuntimeError, match="no free slot on a for rank 0"):
        uni.launch(1, main)
    uni.run()
    with pytest.raises(IndexError, match="rank 6 maps to hostfile line 3, "
                       "but only 3 regular hosts exist"):
        Universe(IDEAL, hostfile=hostfile()).launch(7, main)


def test_merge_low_high_ordering():
    async def child(ctx):
        merged = await ctx.get_parent().merge(high=True)
        return (merged.rank, merged.size)

    async def main(ctx):
        inter = await ctx.comm.spawn_multiple(2, child)
        merged = await inter.merge(high=False)
        return (merged.rank, merged.size)

    res, uni = run(3, main)
    assert res == [(0, 5), (1, 5), (2, 5)]
    assert uni.jobs[1].results() == [(3, 5), (4, 5)]


def test_merge_high_parents_get_upper_ranks():
    async def child(ctx):
        merged = await ctx.get_parent().merge(high=False)
        return merged.rank

    async def main(ctx):
        inter = await ctx.comm.spawn_multiple(2, child)
        merged = await inter.merge(high=True)
        return merged.rank

    res, uni = run(2, main)
    assert res == [2, 3]
    assert uni.jobs[1].results() == [0, 1]


def test_host_pinned_spawn():
    async def child(ctx):
        return ctx.proc.host.name

    async def main(ctx):
        inter = await ctx.comm.spawn_multiple(
            2, child, host_names=["node001", "node000"])
        return True

    hf = Hostfile.uniform(2, slots=8)
    res, uni = run(2, main, hostfile=hf)
    assert uni.jobs[1].results() == ["node001", "node000"]


def test_spawn_unknown_host_errors():
    async def child(ctx):
        return None

    async def main(ctx):
        await ctx.comm.spawn_multiple(1, child, host_names=["nope"])

    from repro.simkernel.errors import TaskFailedError
    with pytest.raises((RuntimeError, TaskFailedError)):
        run(1, main)


def test_a_bridge_offers_no_intracommunicator_operation():
    """A bridge handle has agree, merge and the local operations only:
    no point-to-point and no ordinary collective across it."""
    async def child(ctx):
        await ctx.get_parent().merge(high=True)

    async def main(ctx):
        inter = await ctx.comm.spawn_multiple(1, child)
        for op in ("barrier", "send", "recv", "bcast", "split"):
            with pytest.raises(AttributeError):
                getattr(inter, op)
        merged = await inter.merge(high=False)
        return merged.size

    res, _ = run(1, main)
    assert res == [2]


def test_intercomm_agree_is_local_group():
    """Parents merge-then-agree while children agree-then-merge — the
    paper's exact call orders (Fig. 5 l.14-15 vs Fig. 3 l.21-22) — must not
    deadlock, which requires local-group agreement semantics."""
    async def child(ctx):
        parent = ctx.get_parent()
        await parent.agree(1)
        merged = await parent.merge(high=True)
        return merged.rank

    async def main(ctx):
        inter = await ctx.comm.spawn_multiple(2, child)
        merged = await inter.merge(high=False)
        flag = await inter.agree(1)
        return (merged.rank, flag)

    res, uni = run(2, main)
    assert res == [(0, 1), (1, 1)]
    assert uni.jobs[1].results() == [2, 3]


def test_spawned_children_start_after_spawn_cost(opl):
    async def child(ctx):
        return ctx.wtime()

    async def main(ctx):
        await ctx.compute(1.0)
        await ctx.comm.spawn_multiple(1, child)
        return ctx.wtime()

    res, uni = run(2, main, machine=opl)
    child_start = uni.jobs[1].results()[0]
    assert child_start >= 1.0
    assert res[0] == pytest.approx(child_start)


def test_set_parent_null():
    async def child(ctx):
        assert ctx.get_parent() is not None
        ctx.set_parent_null()
        return ctx.get_parent() is None

    async def main(ctx):
        await ctx.comm.spawn_multiple(1, child)
        return True

    res, uni = run(1, main)
    assert uni.jobs[1].results() == [True]


def test_spawn_consumes_host_slots():
    async def child(ctx):
        await ctx.compute(1.0)
        return None

    async def main(ctx):
        await ctx.comm.spawn_multiple(1, child, host_names=["node000"])
        return None

    hf = Hostfile.uniform(1, slots=2)
    res, uni = run(1, main, hostfile=hf)
    assert uni.hostfile[0].occupied == 0  # all released at exit
