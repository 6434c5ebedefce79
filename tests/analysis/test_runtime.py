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
