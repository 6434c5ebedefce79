"""Vector-clock race detection and deadlock explanation (repro.analysis.races)."""

import pytest

from repro.analysis import find_message_races, format_races
from repro.analysis.races import _VC, compute_vector_clocks
from repro.machine.presets import IDEAL
from repro.mpi.errors import ANY_SOURCE
from repro.mpi.tracing import Tracer
from repro.mpi.universe import Universe
from repro.simkernel.errors import DeadlockError


def traced_universe(n, entry, machine=IDEAL):
    uni = Universe(machine)
    uni.tracer = Tracer()
    job = uni.launch(n, entry)
    uni.run(raise_task_failures=False)
    return uni, job


# ---------------------------------------------------------------------------
# vector-clock primitives
# ---------------------------------------------------------------------------
def test_vc_ordering():
    a, b = _VC({"p": 1}), _VC({"p": 2, "q": 1})
    assert a.happens_before(b)
    assert not b.happens_before(a)
    c = _VC({"q": 5})
    assert a.concurrent(c)


def p2p(src, dst):
    return {"comm": "c", "src": src, "dst": dst, "tag": 0}


def test_send_recv_creates_order():
    t = Tracer()
    t.record(0.0, "j.0", "send", **p2p(0, 1))
    t.record(1.0, "j.1", "recv", **p2p(0, 1))
    t.record(2.0, "j.1", "send", **p2p(1, 0))
    vcs = compute_vector_clocks(t.events)
    assert vcs[0].happens_before(vcs[1])
    assert vcs[0].happens_before(vcs[2])


def test_collective_is_a_synchronisation_point():
    t = Tracer()
    t.record(0.0, "j.0", "send", **p2p(0, 2))       # before barrier
    t.record(1.0, "j.0", "coll", op="barrier", comm="c", rank=0)
    t.record(1.0, "j.1", "coll", op="barrier", comm="c", rank=1)
    t.record(2.0, "j.1", "send", **p2p(1, 2))       # after barrier
    vcs = compute_vector_clocks(t.events)
    # rank 1's post-barrier send is ordered after rank 0's pre-barrier send
    assert vcs[0].happens_before(vcs[3])


# ---------------------------------------------------------------------------
# race detection on real runs
# ---------------------------------------------------------------------------
def test_injected_anysource_race_detected():
    """Two unsynchronised senders racing into one wildcard receive: the
    report must identify both send events."""
    async def main(ctx):
        if ctx.rank == 0:
            first = await ctx.comm.recv(source=ANY_SOURCE)
            second = await ctx.comm.recv(source=ANY_SOURCE)
            return (first, second)
        await ctx.comm.send(f"from {ctx.rank}", dest=0)
        return None

    uni, job = traced_universe(3, main)
    races = find_message_races(uni.tracer)
    assert races, "no race reported for two concurrent wildcard senders"
    r = races[0]
    assert r.matched_send.kind == "send" and r.racing_send.kind == "send"
    assert {r.matched_send.src, r.racing_send.src} == {1, 2}
    assert r.recv.anysrc
    text = format_races(races)
    assert "1->0" in text and "2->0" in text  # both sends in the report


def test_no_race_when_sends_are_ordered():
    """A collective between the two sends orders them: no race."""
    async def main(ctx):
        if ctx.rank == 1:
            await ctx.comm.send("early", dest=0)
        await ctx.comm.barrier()
        if ctx.rank == 2:
            await ctx.comm.send("late", dest=0)
        if ctx.rank == 0:
            a = await ctx.comm.recv(source=ANY_SOURCE)
            b = await ctx.comm.recv(source=ANY_SOURCE)
            return (a, b)
        return None

    uni, job = traced_universe(3, main)
    assert find_message_races(uni.tracer) == []


def test_no_race_for_named_source_receives():
    async def main(ctx):
        if ctx.rank == 0:
            a = await ctx.comm.recv(source=1)
            b = await ctx.comm.recv(source=2)
            return (a, b)
        await ctx.comm.send(ctx.rank, dest=0)
        return None

    uni, job = traced_universe(3, main)
    assert find_message_races(uni.tracer) == []


# ---------------------------------------------------------------------------
# wait-for-graph deadlock explanation
# ---------------------------------------------------------------------------
def test_deadlock_error_carries_wait_for_graph():
    """Two ranks receiving from each other with no sends: the DeadlockError
    must name the cycle."""
    async def main(ctx):
        peer = 1 - ctx.rank
        await ctx.comm.recv(source=peer)
        return None

    uni = Universe(IDEAL)
    job = uni.launch(2, main)
    with pytest.raises(DeadlockError) as excinfo:
        uni.run()
    msg = str(excinfo.value)
    assert "wait-for graph" in msg
    assert "cycle:" in msg
    assert excinfo.value.wait_graph            # also available structurally
    # both ranks appear in the cycle line
    cycle_line = next(l for l in msg.splitlines() if "cycle:" in l)
    assert "job" in cycle_line and "->" in cycle_line


def test_deadlock_on_missing_collective_participant():
    """Rank 1 never enters the barrier: the explainer should say rank 0
    waits on the barrier and name the absent task."""
    async def main(ctx):
        if ctx.rank == 0:
            await ctx.comm.barrier()
        else:
            await ctx.comm.recv(source=0)   # never satisfied either
        return None

    uni = Universe(IDEAL)
    uni.launch(2, main)
    with pytest.raises(DeadlockError) as excinfo:
        uni.run()
    msg = str(excinfo.value)
    assert "barrier" in msg
    assert "wait-for graph" in msg


def _deadlock_graph(n, entry):
    uni = Universe(IDEAL)
    uni.launch(n, entry)
    with pytest.raises(DeadlockError) as excinfo:
        uni.run()
    return excinfo.value.wait_graph


def _never(ctx):
    return ctx.comm.recv(source=ctx.rank)    # parks forever


@pytest.mark.parametrize("op", ["allreduce", "agree"])
def test_deadlock_names_the_ranks_missing_from_an_open_round(op):
    """Every open round — hot or long-tail, NORMAL or SURVIVOR — is in the
    one table the explainer reads: ranks 1 and 3 never join."""
    async def main(ctx):
        if ctx.rank % 2:
            await _never(ctx)
        elif op == "allreduce":
            await ctx.comm.allreduce(1.0)
        else:
            await ctx.comm.agree(1)

    lines = _deadlock_graph(4, main).splitlines()
    for waiter in (0, 2):
        line = next(l for l in lines if f".{waiter} waits for {op} on" in l)
        blocked_on = line.split("blocked on: ")[1]
        assert [name.rsplit(".", 1)[1] for name in blocked_on.split(", ")] \
            == ["1", "3"]


def test_deadlock_names_the_ranks_missing_from_an_intercomm_merge():
    """The children never merge: both parents wait on both children."""
    async def child(ctx):
        await _never(ctx)

    async def main(ctx):
        inter = await ctx.comm.spawn_multiple(2, child)
        await inter.merge(high=False)

    lines = _deadlock_graph(2, main).splitlines()
    merging = [l for l in lines if "waits for merge on" in l]
    assert len(merging) == 2
    for line in merging:
        assert line.count("spawn") >= 3      # the bridge and both children
        blocked_on = line.split("blocked on: ")[1].split(", ")
        assert len(blocked_on) == 2 and all("spawn" in b for b in blocked_on)
