"""MPI edge cases: revocation races, intercomm failures, empty payloads."""

import numpy as np
import pytest

from repro.mpi import (ANY_SOURCE, MPIError, ProcFailedError, RevokedError,
                       Universe)
from repro.machine.presets import IDEAL, OPL

from ..conftest import run_ranks as run


def test_zero_size_and_none_payloads():
    async def main(ctx):
        if ctx.rank == 0:
            await ctx.comm.send(np.zeros(0), dest=1, tag=1)
            await ctx.comm.send(None, dest=1, tag=2)
            await ctx.comm.send(b"", dest=1, tag=3)
        else:
            a = await ctx.comm.recv(source=0, tag=1)
            b = await ctx.comm.recv(source=0, tag=2)
            c = await ctx.comm.recv(source=0, tag=3)
            return (a.size, b, c)
        return None

    res, _ = run(2, main)
    assert res[1] == (0, None, b"")


def test_send_during_revocation_window(opl):
    """A send sleeping through its injection cost observes a revocation
    that lands mid-flight."""
    async def main(ctx):
        if ctx.rank == 0:
            big = np.zeros(10_000_000)  # injection takes ~25 ms on OPL
            with pytest.raises(RevokedError):
                await ctx.comm.send(big, dest=1)
            return "saw-revoke"
        ctx.comm.revoke()
        return "revoked"

    res, _ = run(2, main, machine=opl)
    assert res[0] == "saw-revoke"


def test_intercomm_revoke():
    async def child(ctx):
        parent = ctx.get_parent()
        parent.revoke()
        return "child-done"

    async def main(ctx):
        inter = await ctx.comm.spawn_multiple(1, child)
        await ctx.compute(1.0)
        with pytest.raises(RevokedError):
            await inter.merge(high=False)   # NORMAL: refused once revoked
        assert await inter.agree(1) == 1    # SURVIVOR: outlives the revoke
        return "ok"

    res, uni = run(1, main)
    assert res == ["ok"]
    assert uni.jobs[1].results() == ["child-done"]


def test_a_child_killed_during_merge_fails_every_member():
    """A bridge's death path is its CommState's: the merge the parents
    wait in is doomed for every member, parents and the surviving child,
    with the dead child's rank in the union (parents first)."""
    from repro.mpi import CommState, IntercommState

    async def child(ctx):
        await ctx.compute(2.0 if ctx.rank == 0 else 10.0)
        with pytest.raises(ProcFailedError) as err:
            await ctx.get_parent().merge(high=True)
        return err.value.failed_ranks

    async def main(ctx):
        inter = await ctx.comm.spawn_multiple(2, child)
        with pytest.raises(ProcFailedError) as err:
            await inter.merge(high=False)   # child 1 dies at t=1
        return err.value.failed_ranks, ctx.wtime()

    uni = Universe(IDEAL)
    job = uni.launch(2, main)
    uni.engine.call_at(1.0, lambda: uni.kill_proc(uni.jobs[1].procs[1]))
    uni.run(raise_task_failures=False)
    assert job.results() == [((3,), 1.0), ((3,), 1.0)]
    assert uni.jobs[1].results() == [(3,), None]
    (bridge,) = {s for p in job.procs for s in p.comm_states
                 if isinstance(s, IntercommState)}
    assert IntercommState.on_proc_death is CommState.on_proc_death
    assert bridge.procs == job.procs + uni.jobs[1].procs
    assert bridge.dead_ranks() == {3} and not bridge.rounds.open


def test_any_source_recv_still_served_after_unrelated_death():
    """An ANY_SOURCE receive is not failed by a death as long as another
    sender delivers."""
    async def main(ctx):
        if ctx.rank == 0:
            msg = await ctx.comm.recv(source=ANY_SOURCE, tag=5)
            return msg
        if ctx.rank == 1:
            await ctx.compute(2.0)
            await ctx.comm.send("late", dest=0, tag=5)
        return None

    # rank 2 dies while rank 0 waits; rank 1 still delivers
    res, _ = run(3, main, kills=[(2, 1.0)], raise_task_failures=False)
    assert res[0] == "late"


def test_agree_survivor_completion_when_arrived_member_dies():
    """A rank that arrives at agree and then dies must not block it."""
    async def main(ctx):
        if ctx.rank == 2:
            # arrives immediately, killed at t=1 while others compute
            return await ctx.comm.agree(1)
        await ctx.compute(2.0)
        return await ctx.comm.agree(1)

    res, _ = run(3, main, kills=[(2, 1.0)], raise_task_failures=False)
    assert res[0] == 1 and res[1] == 1


def test_shrink_of_fully_healthy_comm_is_identity_membership():
    async def main(ctx):
        shrunk = await ctx.comm.shrink()
        from repro.mpi import IDENT
        return ctx.comm.group.compare(shrunk.group)

    res, _ = run(4, main)
    from repro.mpi import IDENT
    assert all(r == IDENT for r in res)


def test_split_after_deaths_excludes_dead():
    async def main(ctx):
        await ctx.compute(1.0)
        try:
            await ctx.comm.barrier()
        except MPIError:
            pass
        ctx.comm.revoke()
        shrunk = await ctx.comm.shrink()
        sub = await shrunk.split(shrunk.rank % 2, shrunk.rank)
        return (shrunk.rank, sub.size)

    res, _ = run(5, main, kills=[(2, 0.5)], raise_task_failures=False)
    # survivors: old ranks 0,1,3,4 -> shrunk 0..3 -> parity split 2+2
    alive = [r for r in res if r is not None]
    assert sorted(alive) == [(0, 2), (1, 2), (2, 2), (3, 2)]


def test_message_to_dead_then_revive_via_spawn_is_new_process():
    """A replacement is a distinct process: messages addressed to the dead
    rank before repair are not delivered to the replacement."""
    async def child(ctx):
        await ctx.get_parent().merge(high=True)
        return "fresh"

    # 3 ranks: rank 2 sends to rank 1, rank 1 dies; 0 and 2 recover
    async def entry(ctx):
        if ctx.rank == 1:
            await ctx.compute(10.0)
            return None
        if ctx.rank == 2:
            await ctx.comm.send("ghost", dest=1, tag=1)
        await ctx.compute(1.0)
        ctx.comm.revoke()
        shrunk = await ctx.comm.shrink()
        inter = await shrunk.spawn_multiple(1, child)
        merged = await inter.merge(high=False)
        assert not merged.state.board.posted
        return "ok"

    res, _ = run(3, entry, kills=[(1, 0.5)], raise_task_failures=False)
    assert res[0] == "ok" and res[2] == "ok"


def test_the_audit_still_sees_a_run_that_run_app_closed(monkeypatch):
    # run_app closes its universe once it has read the metrics; under
    # tests/mpi that close waits, so the leak audit reads the whole run
    from repro.core import AppConfig, run_app, runner
    from repro.ft.failure_injection import Kill

    made = []

    def recording(*args, **kwargs):
        made.append(make_universe(*args, **kwargs))
        return made[-1]

    make_universe = runner.make_universe
    monkeypatch.setattr(runner, "make_universe", recording)
    m = run_app(AppConfig(n=5, level=3, technique_code="CR", steps=4,
                          diag_procs=2), OPL, kills=[Kill(3, 1e-4)])
    assert m.n_failures == 1
    uni = made[0][0]
    assert not uni.closed
    assert any(p.comm_states for p in uni.all_procs.values())
