"""Communication statistics: the registry counters and their read-only
view ``universe.stats``."""

import numpy as np
import pytest

from ..conftest import run_ranks as run

ROW = 64 * 8        # halo-row bytes of the co-simulated segment below


def test_message_counters():
    async def main(ctx):
        if ctx.rank == 0:
            await ctx.comm.send(np.zeros(10), dest=1)
        elif ctx.rank == 1:
            await ctx.comm.recv(source=0)
        return None

    _, uni = run(2, main)
    assert uni.stats.messages == 1
    assert uni.stats.bytes_sent == 80


def test_collective_counters():
    async def main(ctx):
        await ctx.comm.barrier()
        await ctx.comm.allreduce(1)
        await ctx.comm.bcast("x" if ctx.rank == 0 else None)
        return None

    _, uni = run(3, main)
    assert uni.stats.collectives["barrier"] == 3
    assert uni.stats.collectives["allreduce"] == 3
    assert uni.stats.collectives["bcast"] == 3


def test_comm_creation_and_kill_counters():
    async def main(ctx):
        await ctx.comm.split(ctx.rank % 2, ctx.rank)
        await ctx.compute(2.0)
        return None

    _, uni = run(4, main, kills=[(3, 1.0)], raise_task_failures=False)
    assert uni.stats.comms_created >= 3   # world + two split colors
    assert uni.stats.kills == 1


def test_spawn_counters():
    async def child(ctx):
        return None

    async def main(ctx):
        await ctx.comm.spawn_multiple(2, child)
        return None

    _, uni = run(2, main)
    assert uni.stats.spawns == 1
    assert uni.stats.procs_spawned == 2


#: view property -> the registry counter it reads
VIEW = {"messages": "mpi_messages", "bytes_sent": "mpi_bytes_sent",
        "comms_created": "mpi_comms_created", "spawns": "mpi_spawns",
        "procs_spawned": "mpi_procs_spawned", "kills": "mpi_kills"}


def test_view_reads_the_registry_as_its_readers_do():
    """One run with every kind of traffic: a p2p message, collectives, a
    co-simulated segment, a spawn and a kill.  Each view property is its
    registry counter, and ``collectives`` answers ``[op]``, ``.total()``
    and ``.items()`` as ``bench/simloads.py``, ``benchmarks/`` and
    ``tests/mpi/golden/record.py`` read it."""
    async def child(ctx):
        return None

    async def main(ctx):
        comm = ctx.comm
        await comm.barrier()
        await comm.allreduce(1)
        assert await comm.ring_segment(2, ROW, 1e-6, ctx.rank,
                                       lambda values, n: values) == ctx.rank
        if ctx.rank == 0:
            await comm.send(np.zeros(10), dest=1)
        elif ctx.rank == 1:
            await comm.recv(source=0)
        await comm.spawn_multiple(1, child)
        await ctx.compute(1.0)
        return None

    _, uni = run(4, main, kills=[(3, 0.5)])
    stats, reg = uni.stats, uni.registry
    for prop, name in VIEW.items():
        assert getattr(stats, prop) == reg.counter(name).value, prop
        with pytest.raises(AttributeError):
            setattr(stats, prop, 0)
    # one p2p message plus 2 rows per step per member of the segment
    assert stats.messages == 1 + 2 * 2 * 4
    assert stats.bytes_sent == 80 + 2 * 2 * 4 * ROW
    assert (stats.spawns, stats.procs_spawned, stats.kills) == (1, 1, 1)
    assert stats.comms_created >= 3       # world, child world, bridge

    by_op = {dict(c.labels)["op"]: c.value
             for c in reg.counters("mpi_collectives")}
    colls = stats.collectives
    assert colls["barrier"] == colls["allreduce"] == 4
    assert colls["no_such_op"] == 0
    assert dict(colls.items()) == by_op
    assert colls.total() == sum(by_op.values()) > 8
    assert "no_such_op" not in stats.collectives    # reading made none
