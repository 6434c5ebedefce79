"""Collective operations."""

import numpy as np
import pytest

from repro.mpi import MAX, MIN, PROD, SUM, LAND, RankError

from ..conftest import run_ranks as run


def test_barrier_synchronises_clocks(opl):
    async def main(ctx):
        await ctx.compute(float(ctx.rank))  # rank r arrives at t=r
        await ctx.comm.barrier()
        return ctx.wtime()

    res, _ = run(4, main, machine=opl)
    assert len(set(res)) == 1           # everyone leaves together
    assert res[0] >= 3.0                # at the latest arrival


def test_bcast_from_each_root():
    async def main(ctx):
        out = []
        for root in range(ctx.size):
            obj = f"r{root}" if ctx.rank == root else None
            out.append(await ctx.comm.bcast(obj, root=root))
        return out

    res, _ = run(3, main)
    assert all(r == ["r0", "r1", "r2"] for r in res)


def test_bcast_numpy_not_aliased():
    async def main(ctx):
        arr = np.arange(3) if ctx.rank == 0 else None
        got = await ctx.comm.bcast(arr, root=0)
        got += ctx.rank * 100
        return got.tolist()

    res, _ = run(3, main)
    assert res[0] == [0, 1, 2]
    assert res[2] == [200, 201, 202]


def test_gather_orders_by_rank():
    async def main(ctx):
        return await ctx.comm.gather(ctx.rank ** 2, root=1)

    res, _ = run(4, main)
    assert res[1] == [0, 1, 4, 9]
    assert res[0] is None and res[2] is None


def test_allgather():
    async def main(ctx):
        return await ctx.comm.allgather(chr(ord("a") + ctx.rank))

    res, _ = run(3, main)
    assert all(r == ["a", "b", "c"] for r in res)


def test_scatter():
    async def main(ctx):
        items = [i * 10 for i in range(ctx.size)] if ctx.rank == 0 else None
        return await ctx.comm.scatter(items, root=0)

    res, _ = run(4, main)
    assert res == [0, 10, 20, 30]


def test_scatter_wrong_length_raises_on_every_rank():
    async def main(ctx):
        items = [1, 2] if ctx.rank == 0 else None
        with pytest.raises(RankError):
            await ctx.comm.scatter(items, root=0)
        return True

    res, _ = run(4, main)
    assert all(res)


def test_reduce_and_allreduce_ops():
    async def main(ctx):
        s = await ctx.comm.allreduce(ctx.rank + 1, op=SUM)
        p = await ctx.comm.allreduce(ctx.rank + 1, op=PROD)
        mx = await ctx.comm.allreduce(ctx.rank, op=MAX)
        mn = await ctx.comm.allreduce(ctx.rank, op=MIN)
        land = await ctx.comm.allreduce(ctx.rank < 3, op=LAND)
        root_only = await ctx.comm.reduce(ctx.rank, op=SUM, root=2)
        return (s, p, mx, mn, land, root_only)

    res, _ = run(3, main)
    assert res[0][:5] == (6, 6, 2, 0, True)
    assert res[2][5] == 3
    assert res[0][5] is None


def test_allreduce_numpy_elementwise():
    async def main(ctx):
        v = np.full(3, float(ctx.rank))
        total = await ctx.comm.allreduce(v, op=SUM)
        mx = await ctx.comm.allreduce(v, op=MAX)
        return (total.tolist(), mx.tolist())

    res, _ = run(4, main)
    assert res[0][0] == [6.0, 6.0, 6.0]
    assert res[0][1] == [3.0, 3.0, 3.0]


def test_collectives_interleave_with_p2p():
    async def main(ctx):
        if ctx.rank == 0:
            await ctx.comm.send("x", dest=1)
        total = await ctx.comm.allreduce(1)
        if ctx.rank == 1:
            assert await ctx.comm.recv(source=0) == "x"
        return total

    res, _ = run(2, main)
    assert res == [2, 2]


def test_collective_cost_charged(opl):
    async def main(ctx):
        t0 = ctx.wtime()
        await ctx.comm.barrier()
        return ctx.wtime() - t0

    res, _ = run(8, main, machine=opl)
    expected = opl.barrier_cost(8)
    assert res[0] == pytest.approx(expected)


def test_single_rank_collectives():
    async def main(ctx):
        assert await ctx.comm.allreduce(5) == 5
        assert await ctx.comm.gather("a") == ["a"]
        assert await ctx.comm.bcast("b") == "b"
        await ctx.comm.barrier()
        return True

    res, _ = run(1, main)
    assert res == [True]
