"""``comm.exchange`` against the literal program it stands for.

Every test runs the same rank program twice — once through ``exchange``
and once through the literal ``isend``/``recv``/``wait`` sequence of its
docstring, written out here — and requires per-rank values (bit for bit),
finish times, and failure exceptions with their delivery times to agree
exactly.  No fused fast path may come back that moves either.
"""

import numpy as np
import pytest

from repro.machine.presets import IDEAL, OPL
from repro.mpi import ProcFailedError

from ..conftest import run_ranks
from .golden.record import norm

_TAG_UP, _TAG_DOWN = 11, 12


async def method(comm, sends, recvs, *, copy=True):
    return await comm.exchange(sends, recvs, copy=copy)


async def literal(comm, sends, recvs, *, copy=True):
    reqs = [comm.isend(obj, dest, tag, copy=copy) for dest, tag, obj in sends]
    out = [await comm.recv(source, tag) for source, tag in recvs]
    for r in reqs:
        await r.wait()
    return out


def run_both(n, program, **kw):
    """Per-rank results of ``program(ctx, exchange)`` for both forms."""
    def entry(exchange):
        async def main(ctx):
            return await program(ctx, exchange)
        return main

    one, _ = run_ranks(n, entry(method), **kw)
    other, _ = run_ranks(n, entry(literal), **kw)
    return one, other


def _neighbours(ctx):
    n, r = ctx.size, ctx.rank
    return (r - 1) % n, (r + 1) % n


@pytest.mark.parametrize("machine", [IDEAL, OPL], ids=["ideal", "opl"])
def test_ring_exchange_bit_identical(machine):
    """The solvers' halo idiom: exchange boundary rows around a ring."""
    async def program(ctx, exchange, rounds=5, width=32):
        r = ctx.rank
        prev_r, next_r = _neighbours(ctx)
        u = np.full(width, float(r))
        history = []
        for step in range(rounds):
            await ctx.compute(0.001 * ((r * 3 + step) % 4))
            lo, hi = await exchange(
                ctx.comm,
                ((prev_r, _TAG_UP, u.copy()), (next_r, _TAG_DOWN, u.copy())),
                ((prev_r, _TAG_DOWN), (next_r, _TAG_UP)), copy=False)
            u = (u + lo + hi) / 3.0
            history.append(u.copy())
        return history, ctx.wtime()

    one, other = run_both(6, program, machine=machine)
    assert norm(one) == norm(other)     # floats as hex, arrays as bytes


def test_exchange_dead_neighbour_identical():
    """A neighbour dead before the exchange: same error, same timing."""
    async def program(ctx, exchange):
        prev_r, next_r = _neighbours(ctx)
        await ctx.compute(0.5)
        try:
            await exchange(
                ctx.comm,
                ((prev_r, _TAG_UP, 1.0), (next_r, _TAG_DOWN, 1.0)),
                ((prev_r, _TAG_DOWN), (next_r, _TAG_UP)))
        except ProcFailedError as exc:
            return "dead", exc.failed_ranks, ctx.wtime()
        return "ok", ctx.wtime()

    one, other = run_both(4, program, machine=OPL, kills=((2, 0.1),),
                          raise_task_failures=False)
    assert one == other
    assert one[1][0] == "dead"


def test_exchange_kill_mid_flight_identical():
    """A neighbour killed while the exchange is parked: the surviving
    ranks observe the failure at the same virtual instant either way."""
    async def program(ctx, exchange):
        r = ctx.rank
        prev_r, next_r = _neighbours(ctx)
        if r == 2:          # rank 2 never reaches the exchange
            await ctx.compute(100.0)
            return "late"
        try:
            got = await exchange(
                ctx.comm,
                ((prev_r, _TAG_UP, float(r)), (next_r, _TAG_DOWN, float(r))),
                ((prev_r, _TAG_DOWN), (next_r, _TAG_UP)))
            return "ok", got, ctx.wtime()
        except ProcFailedError as exc:
            return "dead", exc.failed_ranks, ctx.wtime()

    one, other = run_both(5, program, machine=OPL, kills=((2, 0.3),),
                          raise_task_failures=False)
    assert one == other
    assert one[1][0] == "dead" and one[3][0] == "dead"
