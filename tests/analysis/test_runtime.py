"""Runtime leak audit (repro.analysis.runtime)."""

import pytest

from repro.analysis import check_runtime_leaks
from repro.machine.presets import IDEAL
from repro.mpi.universe import Universe


def run(n, entry, machine=IDEAL):
    uni = Universe(machine)
    job = uni.launch(n, entry)
    uni.run(raise_task_failures=False)
    return uni, job


def test_clean_run_reports_clean():
    async def main(ctx):
        await ctx.comm.barrier()
        if ctx.rank == 0:
            await ctx.comm.send("x", dest=1)
        elif ctx.rank == 1:
            await ctx.comm.recv(source=0)
        return None

    uni, _ = run(2, main)
    report = check_runtime_leaks(uni)
    assert report.errors == [] and report.warnings == []
    assert "clean" in str(report)


def test_abandoned_irecv_is_an_error():
    async def main(ctx):
        if ctx.rank == 0:
            ctx.comm.irecv(source=1)   # posted, never awaited
        return None

    uni, _ = run(2, main)
    report = check_runtime_leaks(uni)
    assert len(report.errors) == 1
    assert "pending receive" in report.errors[0]


def test_unreceived_message_is_a_warning():
    async def main(ctx):
        if ctx.rank == 0:
            await ctx.comm.send("lost", dest=1)
        return None

    uni, _ = run(2, main)
    report = check_runtime_leaks(uni)
    assert report.errors == []
    assert any("never received" in w for w in report.warnings)


def test_a_closed_universe_is_refused():
    async def main(ctx):
        await ctx.comm.barrier()

    uni, _ = run(2, main)
    uni.close()
    with pytest.raises(ValueError, match="closed"):
        check_runtime_leaks(uni)


def test_a_live_bridge_is_audited_through_its_members():
    """A bridge is a communicator over both groups: the audit reads its
    members from ``state.procs``, parents first, and names it once every
    member is dead."""
    from repro.mpi import IntercommState

    async def child(ctx):
        await ctx.compute(5.0)

    async def main(ctx):
        await ctx.comm.spawn_multiple(2, child)
        await ctx.compute(5.0)

    def audit(victims):
        uni = Universe(IDEAL)
        job = uni.launch(1, main)
        uni.engine.call_at(1.0, lambda: [
            uni.kill_proc(p) for p in victims(job.procs, uni.jobs[1].procs)])
        uni.run(raise_task_failures=False)
        (bridge,) = {s for s in job.procs[0].comm_states
                     if isinstance(s, IntercommState)}
        assert bridge.procs == job.procs + uni.jobs[1].procs
        return bridge.name, check_runtime_leaks(uni)

    name, report = audit(lambda parents, children: children)
    assert report.errors == []
    assert not any(w.startswith(name) for w in report.warnings)
    name, report = audit(lambda parents, children: parents + children)
    assert f"{name}: every member is dead but the communicator still " \
        "holds state (missing free())" in report.warnings
