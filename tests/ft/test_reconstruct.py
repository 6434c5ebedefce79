"""Communicator reconstruction (Figs. 2, 3, 5, 7)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ft import (PLACE_FIRST_FIT, PLACE_SAME_HOST, PLACE_SPARE,
                      ReconstructTimers, communicator_reconstruct,
                      select_rank_key)
from repro.ft.reconstruct import PlacementError, _placement_hosts
from repro.machine import Hostfile
from repro.mpi import MPIError, Universe
from repro.machine.presets import IDEAL, OPL


# ---------------------------------------------------------------------------
# select_rank_key (Fig. 7)
# ---------------------------------------------------------------------------
def test_select_rank_key_examples():
    # original size 7, failed {3, 5}: survivors keep 0,1,2,4,6
    for i, expect in enumerate([0, 1, 2, 4, 6]):
        assert select_rank_key(i, 5, [3, 5], 7) == expect


def test_select_rank_key_out_of_range():
    with pytest.raises(ValueError):
        select_rank_key(5, 5, [3, 5], 7)


@given(st.integers(2, 40), st.sets(st.integers(0, 39), min_size=0, max_size=10))
@settings(max_examples=60)
def test_select_rank_key_is_order_preserving_bijection(total, failed):
    failed = {f for f in failed if f < total}
    if len(failed) >= total:
        return
    shrunk = total - len(failed)
    keys = [select_rank_key(i, shrunk, sorted(failed), total)
            for i in range(shrunk)]
    # keys are exactly the surviving original ranks, in order
    assert keys == sorted(set(range(total)) - failed)


# ---------------------------------------------------------------------------
# full protocol
# ---------------------------------------------------------------------------
def _reconstruct_app(record):
    async def main(ctx):
        timers = ReconstructTimers()
        await ctx.compute(1.0)
        world = await communicator_reconstruct(
            ctx, ctx.comm, entry=main, argv=ctx.argv, timers=timers)
        # everyone computes a collective proof that ranks are usable
        total = await world.allreduce(world.rank)
        record.append((ctx.proc.name, world.rank, world.size, total,
                       len(timers.failed_ranks)))
        return (world.rank, world.size)

    return main


def test_reconstruction_restores_size_and_ranks():
    record = []
    main = _reconstruct_app(record)
    uni = Universe(IDEAL)
    job = uni.launch(6, main)
    uni.kill_rank(job, 2, at=0.5)
    uni.kill_rank(job, 4, at=0.5)
    uni.run(raise_task_failures=False)
    # survivors
    results = job.results()
    assert results[0] == (0, 6)
    assert results[5] == (5, 6)
    # children regained exactly ranks 2 and 4
    child_ranks = sorted(r[1] for r in record if r[0].startswith("spawn"))
    assert child_ranks == [2, 4]
    # the post-repair collective saw all 6 ranks: sum 0..5
    assert all(r[3] == 15 for r in record)


def test_no_failure_returns_original_world():
    async def main(ctx):
        world = await communicator_reconstruct(ctx, ctx.comm, entry=main)
        return world.state is ctx.comm.state

    uni = Universe(IDEAL)
    job = uni.launch(4, main)
    uni.run()
    assert all(job.results())


def test_timers_populated_on_failure():
    timers_box = {}

    async def main(ctx):
        t = ReconstructTimers()
        await ctx.compute(1.0)
        world = await communicator_reconstruct(ctx, ctx.comm, entry=main,
                                               timers=t)
        if world.rank == 0:
            timers_box["t"] = t
            timers_box["spent"] = ctx.spent()
        return world.rank

    uni = Universe(OPL)
    job = uni.launch(5, main)
    uni.kill_rank(job, 3, at=0.5)
    uni.run(raise_task_failures=False)
    t, spent = timers_box["t"], timers_box["spent"]
    assert t.failed_ranks == [3]
    assert spent["reconstruct"] > 0 and spent["agree"] > 0
    assert spent["detect"] >= spent["shrink"]
    assert t.iterations == 2  # repair + verify


def test_same_host_placement_restores_load_balance():
    hosts_box = {}

    async def main(ctx):
        await ctx.compute(1.0)
        world = await communicator_reconstruct(
            ctx, ctx.comm, entry=main, placement=PLACE_SAME_HOST)
        if ctx.proc.spawned:
            hosts_box[world.rank] = ctx.proc.host.name
        return world.rank

    hf = Hostfile.uniform(4, slots=2)
    uni = Universe(IDEAL, hostfile=hf)
    job = uni.launch(8, main)
    uni.kill_rank(job, 5, at=0.5)   # rank 5 lives on host 5//2 = node002
    uni.run(raise_task_failures=False)
    assert hosts_box == {5: "node002"}


def test_spare_placement():
    hosts_box = {}

    async def main(ctx):
        await ctx.compute(1.0)
        world = await communicator_reconstruct(
            ctx, ctx.comm, entry=main, placement=PLACE_SPARE)
        if ctx.proc.spawned:
            hosts_box[world.rank] = ctx.proc.host.name
        return world.rank

    hf = Hostfile.uniform(2, slots=2, n_spares=1)
    uni = Universe(IDEAL, hostfile=hf)
    job = uni.launch(4, main)
    uni.kill_rank(job, 1, at=0.5)
    uni.run(raise_task_failures=False)
    assert hosts_box == {1: "spare000"}


def test_first_fit_placement():
    hosts_box = {}

    async def main(ctx):
        await ctx.compute(1.0)
        world = await communicator_reconstruct(
            ctx, ctx.comm, entry=main, placement=PLACE_FIRST_FIT)
        if ctx.proc.spawned:
            hosts_box[world.rank] = ctx.proc.host.name
        return world.rank

    hf = Hostfile.uniform(3, slots=2)
    uni = Universe(IDEAL, hostfile=hf)
    job = uni.launch(4, main)   # node000, node000, node001, node001
    uni.kill_rank(job, 3, at=0.5)
    uni.run(raise_task_failures=False)
    # the death freed a slot on node001, which is the first fit
    assert hosts_box == {3: "node001"}


# ---------------------------------------------------------------------------
# placement fallback chains (_placement_hosts)
# ---------------------------------------------------------------------------
class _Uni:
    """Just enough universe for ``_placement_hosts``."""

    def __init__(self, hostfile):
        self.hostfile = hostfile


def _occupy(hf, **counts):
    for h in hf:
        if h.name in counts:
            h.occupied = counts[h.name]
    return hf


def test_same_host_prefers_original_host():
    hf = Hostfile.uniform(2, slots=2)
    assert _placement_hosts(_Uni(hf), [3], PLACE_SAME_HOST) == ["node001"]


def test_same_host_falls_back_to_spares_then_regular():
    hf = _occupy(Hostfile.uniform(2, slots=2, n_spares=1), node001=2)
    assert _placement_hosts(_Uni(hf), [3], PLACE_SAME_HOST) == ["spare000"]
    hf = _occupy(Hostfile.uniform(2, slots=2), node001=2)
    assert _placement_hosts(_Uni(hf), [3], PLACE_SAME_HOST) == ["node000"]


def test_same_host_rank_past_hostfile_falls_back():
    """A rank whose Fig. 5 arithmetic maps past the regular hosts (the
    old IndexError path) takes the deterministic fallback chain."""
    hf = Hostfile.uniform(2, slots=2, n_spares=1)
    assert _placement_hosts(_Uni(hf), [99], PLACE_SAME_HOST) == ["spare000"]


def test_spare_policy_falls_back_to_regular():
    hf = Hostfile.uniform(2, slots=2)  # no spares at all
    assert _placement_hosts(_Uni(hf), [1], PLACE_SPARE) == ["node000"]


def test_first_fit_policy_falls_back_to_spares():
    hf = _occupy(Hostfile.uniform(2, slots=2, n_spares=1),
                 node000=2, node001=2)
    assert _placement_hosts(_Uni(hf), [1], PLACE_FIRST_FIT) == ["spare000"]


def test_pending_ledger_spreads_same_repair():
    """Replacements placed earlier in the same repair consume capacity the
    later ones must see — two victims of a one-free-slot host cannot both
    land on it."""
    hf = _occupy(Hostfile.uniform(2, slots=2), node000=1, node001=1)
    names = _placement_hosts(_Uni(hf), [0, 1], PLACE_SAME_HOST)
    assert names == ["node000", "node001"]


@pytest.mark.parametrize("placement",
                         [PLACE_SAME_HOST, PLACE_SPARE, PLACE_FIRST_FIT])
def test_exhausted_hostfile_raises_placement_error(placement):
    hf = _occupy(Hostfile.uniform(2, slots=2, n_spares=1),
                 node000=2, node001=2, spare000=2)
    with pytest.raises(PlacementError) as exc:
        _placement_hosts(_Uni(hf), [1], placement)
    assert "rank 1" in str(exc.value)
    assert placement in str(exc.value)


def test_placement_is_deterministic():
    hf = _occupy(Hostfile.uniform(3, slots=2, n_spares=1), node001=2)
    uni = _Uni(hf)
    first = _placement_hosts(uni, [2, 3, 0], PLACE_SAME_HOST)
    assert first == _placement_hosts(uni, [2, 3, 0], PLACE_SAME_HOST)


def test_unknown_placement_policy_rejected():
    with pytest.raises(ValueError):
        _placement_hosts(_Uni(Hostfile.uniform(1)), [0], "teleport")


# ---------------------------------------------------------------------------
# phase-time attribution across failed repair attempts
# ---------------------------------------------------------------------------
def test_aborted_attempt_charges_its_inflight_phase():
    """An attempt aborted mid-repair charges the phase it died in: the
    merge wait for a doomed replacement lands in rank 0's ``merge`` span
    total instead of vanishing (a span closes on error too)."""
    def make_main(box):
        async def main(ctx):
            await ctx.compute(1.0)  # replacements pause before joining too
            world = await communicator_reconstruct(ctx, ctx.comm,
                                                   entry=main)
            if world is None:
                return "orphan"
            if world.rank == 0:
                box["spent"] = ctx.spent()
            return world.rank
        return main

    def run(kill_replacement):
        box = {}
        uni = Universe(IDEAL)
        job = uni.launch(4, make_main(box))
        uni.kill_rank(job, 2, at=0.5)
        if kill_replacement:
            # the first replacement spawns at ~1.0 and would join at ~2.0
            # (its initial compute); kill it mid-pause so the parents'
            # merge — entered at ~1.0 — aborts at 1.5
            def kill_first():
                assert len(uni.jobs) > 1, "replacement not spawned yet"
                p = uni.jobs[1].procs[0]
                if p.alive:
                    uni.kill_proc(p)
            uni.engine.call_at(1.5, kill_first)
        uni.run(raise_task_failures=False)
        return box["spent"]

    control = run(kill_replacement=False)
    retried = run(kill_replacement=True)
    # one clean attempt: merge waits out the replacement's 1.0s startup
    assert control["merge"] == pytest.approx(1.0, abs=0.05)
    # aborted attempt adds its 0.5s doomed wait on top of the clean retry
    assert retried["merge"] == pytest.approx(1.5, abs=0.05)
    # and the buckets cover the repair total — nothing vanishes
    assert retried["merge"] == pytest.approx(retried["reconstruct"],
                                             abs=0.05)


def test_failure_during_recovery_loops_again():
    """A second failure that lands while the first repair is under way is
    caught by the Fig. 3 retry loop."""
    async def main(ctx):
        await ctx.compute(1.0)
        t = ReconstructTimers()
        world = await communicator_reconstruct(ctx, ctx.comm, entry=main,
                                               timers=t)
        total = await world.allreduce(1)
        return (world.rank, world.size, total, t.iterations)

    uni = Universe(OPL)
    job = uni.launch(6, main)
    uni.kill_rank(job, 2, at=0.5)
    # second kill lands mid-recovery of the first (OPL repair takes ~ms-s)
    uni.kill_rank(job, 4, at=0.52)
    uni.run(raise_task_failures=False)
    res = job.results()
    assert res[0][:3] == (0, 6, 6)
    assert res[0][3] >= 2


def test_replacement_killed_mid_join_triggers_repair_retry():
    """The first replacement dies before completing its join; the repair
    retries from revoke+shrink and spawns a second replacement (extension
    beyond the paper's pseudocode)."""
    async def main(ctx):
        await ctx.compute(1.0)  # replacements also pause before joining
        world = await communicator_reconstruct(ctx, ctx.comm, entry=main)
        if world is None:
            return "orphan"
        total = await world.allreduce(1)
        return (world.rank, world.size, total)

    uni = Universe(IDEAL)
    job = uni.launch(4, main)
    uni.kill_rank(job, 2, at=0.5)

    # the first replacement spawns at ~1.0 and joins at ~2.0 (its initial
    # compute); kill it mid-pause so the parents' merge dooms
    def kill_first_replacement():
        assert len(uni.jobs) > 1, "replacement not spawned yet"
        p = uni.jobs[1].procs[0]
        if p.alive:
            uni.kill_proc(p)

    uni.engine.call_at(1.5, kill_first_replacement)
    uni.run(raise_task_failures=False)
    res = job.results()
    assert res[0] == (0, 4, 4)
    assert res[1] == (1, 4, 4)
    assert res[3] == (3, 4, 4)
    # a second replacement job exists and regained rank 2
    final_children = [j.results() for j in uni.jobs[2:]]
    assert any((2, 4, 4) in r for r in final_children)
