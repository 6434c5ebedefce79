"""Point-to-point semantics."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, Status, run_ranks, waitall
from repro.mpi.datatypes import clone_payload, payload_nbytes

from ..conftest import run_ranks as run


def test_send_recv_roundtrip():
    async def main(ctx):
        if ctx.rank == 0:
            await ctx.comm.send({"x": 1}, dest=1, tag=5)
            return None
        return await ctx.comm.recv(source=0, tag=5)

    res, _ = run(2, main)
    assert res[1] == {"x": 1}


def test_tag_matching_is_selective():
    async def main(ctx):
        if ctx.rank == 0:
            await ctx.comm.send("a", dest=1, tag=1)
            await ctx.comm.send("b", dest=1, tag=2)
        else:
            b = await ctx.comm.recv(source=0, tag=2)
            a = await ctx.comm.recv(source=0, tag=1)
            return (a, b)

    res, _ = run(2, main)
    assert res[1] == ("a", "b")


def test_fifo_order_same_tag():
    async def main(ctx):
        if ctx.rank == 0:
            for i in range(5):
                await ctx.comm.send(i, dest=1, tag=0)
        else:
            return [await ctx.comm.recv(source=0, tag=0) for _ in range(5)]

    res, _ = run(2, main)
    assert res[1] == [0, 1, 2, 3, 4]


def test_any_source_any_tag():
    async def main(ctx):
        if ctx.rank == 2:
            got = [await ctx.comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                   for _ in range(2)]
            return sorted(got)
        await ctx.comm.send(ctx.rank * 10, dest=2, tag=ctx.rank)
        return None

    res, _ = run(3, main)
    assert res[2] == [0, 10]


def test_recv_returns_status():
    async def main(ctx):
        if ctx.rank == 0:
            await ctx.comm.send("payload", dest=1, tag=9)
        else:
            obj, status = await ctx.comm.recv(source=ANY_SOURCE, tag=ANY_TAG,
                                              return_status=True)
            assert isinstance(status, Status)
            return (obj, status.source, status.tag)

    res, _ = run(2, main)
    assert res[1] == ("payload", 0, 9)


def test_numpy_payload_has_value_semantics():
    """Receiver mutations must not alias the sender's array."""
    async def main(ctx):
        if ctx.rank == 0:
            arr = np.ones(4)
            await ctx.comm.send(arr, dest=1)
            await ctx.comm.barrier()
            return arr.sum()
        got = await ctx.comm.recv(source=0)
        got[:] = 99.0
        await ctx.comm.barrier()
        return got.sum()

    res, _ = run(2, main)
    assert res[0] == 4.0
    assert res[1] == 4 * 99.0


def test_sender_mutation_after_send_not_visible():
    async def main(ctx):
        if ctx.rank == 0:
            arr = np.zeros(3)
            await ctx.comm.send(arr, dest=1)
            arr[:] = -1.0
        else:
            got = await ctx.comm.recv(source=0)
            return got.tolist()

    res, _ = run(2, main)
    assert res[1] == [0.0, 0.0, 0.0]


def test_isend_irecv():
    async def main(ctx):
        if ctx.rank == 0:
            reqs = [ctx.comm.isend(i, dest=1, tag=i) for i in range(3)]
            for r in reqs:
                await r.wait()
        else:
            reqs = [ctx.comm.irecv(source=0, tag=i) for i in range(3)]
            return [await r.wait() for r in reqs]

    res, _ = run(2, main)
    assert res[1] == [0, 1, 2]


def test_waitall_collects_in_order():
    async def main(ctx):
        if ctx.rank == 0:
            reqs = [ctx.comm.isend(i * i, dest=1, tag=i) for i in range(4)]
            await waitall(reqs)
            return None
        reqs = [ctx.comm.irecv(source=0, tag=i) for i in range(4)]
        return await waitall(reqs)

    res, _ = run(2, main)
    assert res[1] == [0, 1, 4, 9]


def test_self_send_recv():
    async def main(ctx):
        req = ctx.comm.isend("self", dest=ctx.rank, tag=3)
        msg = await ctx.comm.recv(source=ctx.rank, tag=3)
        await req.wait()
        return msg

    res, _ = run(1, main)
    assert res == ["self"]


def test_rank_bounds_checked():
    from repro.mpi import RankError

    async def main(ctx):
        with pytest.raises(RankError):
            await ctx.comm.send("x", dest=99)
        with pytest.raises(RankError):
            await ctx.comm.recv(source=99)
        return True

    res, _ = run(2, main)
    assert all(res)


# ---------------------------------------------------------------------------
def test_payload_nbytes_estimates():
    assert payload_nbytes(None) == 0
    assert payload_nbytes(np.zeros(10)) == 80
    assert payload_nbytes(b"abc") == 3
    assert payload_nbytes("abcd") == 4
    assert payload_nbytes(3) == 8
    assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 8 + 16 + 24
    assert payload_nbytes({"k": np.zeros(1)}) >= 8 + 8


def test_clone_payload_deep_for_arrays():
    arr = np.arange(3)
    cloned = clone_payload({"a": [arr, (arr,)], "b": 5})
    cloned["a"][0][0] = 99
    cloned["a"][1][0][1] = 98
    assert arr.tolist() == [0, 1, 2]
    assert clone_payload("str") == "str"
