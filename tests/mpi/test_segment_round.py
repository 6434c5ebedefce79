"""The co-simulated solve segment at the MPI layer: ``RingClocks`` against
the per-message loop it stands for, the group's choice of path, and what
late and repeated kills do to ``SegmentRound`` and ``Universe.doomed``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.races import format_wait_for_graph
from repro.analysis.runtime import check_runtime_leaks
from repro.machine.presets import OPL
from repro.mpi import MPIError, ProcFailedError, RevokedError, Universe
from repro.mpi.matching import RingClocks
from repro.mpi.tracing import Tracer
from repro.simkernel.errors import DeadlockError, TaskFailedError

ROW = 64 * 8        # halo-row bytes of the ring programs below
_UP, _DOWN = 21, 22


def _advance(values, n):
    return [v + n for v in values]


def ring_clocks(starts, cost, compute, n, order=None):
    """Every rank's clock after ``n`` steps, the starts fed in ``order``."""
    ring, clocks = RingClocks(len(starts), cost, n), {}
    for r in order or range(len(starts)):
        done = ring.start(r, starts[r], compute[r])
        assert all(at >= starts[r] for _rank, at in done)
        clocks.update(done)
    return [clocks[r] for r in range(len(starts))]


def launch(size, main, *, traced=False, machine=OPL):
    uni = Universe(machine)
    if traced:
        uni.tracer = Tracer()
    return uni, uni.launch(size, main)


# ----------------------------------------------------------------------
# the recurrence is the per-message loop, to the bit
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(size=st.sampled_from([1, 2, 3, 5, 64]), n=st.integers(1, 8),
       traced=st.booleans(), data=st.data())
def test_ring_clocks_equal_the_exchange_loop(size, n, traced, data):
    """Arbitrary start skews and per-rank compute times: the closed form
    gives the clocks ``exchange`` + ``ctx.compute`` reach, with or without
    a tracer recording them."""
    skews = data.draw(st.lists(st.floats(0.0, 1e-4), min_size=size,
                               max_size=size))
    comps = data.draw(st.lists(st.floats(0.0, 1e-5), min_size=size,
                               max_size=size))

    async def main(ctx):
        comm, r = ctx.comm, ctx.rank
        await ctx.compute(skews[r])
        start = ctx.wtime()
        row = np.zeros(ROW // 8)
        for _ in range(n):
            if size > 1:
                await comm.exchange(
                    (((r - 1) % size, _UP, row.copy()),
                     ((r + 1) % size, _DOWN, row.copy())),
                    (((r - 1) % size, _DOWN), ((r + 1) % size, _UP)),
                    copy=False)
            await ctx.compute(comps[r])
        return start, ctx.wtime()

    uni, job = launch(size, main, traced=traced)
    uni.run()
    starts, ends = zip(*job.results())
    order = sorted(range(size), key=lambda r: (starts[r], r))
    assert ring_clocks(starts, OPL.p2p_cost(ROW), comps, n, order) \
        == list(ends)


def test_ring_segment_resumes_each_rank_at_its_own_clock():
    size, n = 5, 3
    skews = [0.0, 1e-6, 0.5e-6, 0.0, 1.5e-6]
    comps = [1e-6 * (r + 1) for r in range(size)]

    async def main(ctx):
        await ctx.compute(skews[ctx.rank])
        out = await ctx.comm.ring_segment(n, ROW, comps[ctx.rank],
                                          10 * ctx.rank, _advance)
        return out, ctx.wtime()

    uni, job = launch(size, main)
    uni.run()
    outs, clocks = zip(*job.results())
    assert list(outs) == [10 * r + n for r in range(size)]
    assert list(clocks) == ring_clocks(skews, OPL.p2p_cost(ROW), comps, n)
    assert uni.stats.messages == 2 * size * n
    assert uni.stats.bytes_sent == 2 * size * n * ROW
    # launch + skew sleep + one resume per rank for the whole segment
    # (rank 0 and 3 skip the zero sleep) + the decision that ends the
    # first arrival's instant
    assert uni.engine.events_processed == 3 * size - 1
    assert job.world_state.segment is None and not job.world_state.per_message


def test_one_rank_group_exchanges_nothing():
    async def main(ctx):
        return await ctx.comm.ring_segment(4, ROW, 1e-6, 7, _advance), \
            ctx.wtime()

    uni, job = launch(1, main)
    uni.run()
    assert job.results() == [(11, 1e-6 + 1e-6 + 1e-6 + 1e-6)]
    assert uni.stats.messages == 0


def _arc_advance(values, n):
    """Every member's value plus the sum of its ``n`` neighbours either
    side — what a member far from a late starter must get from its arc."""
    size = len(values)
    return [sum(values[(i + d) % size] for d in range(-n, n + 1))
            for i in range(size)]


@settings(max_examples=25, deadline=None)
@given(size=st.sampled_from([3, 5, 8, 64]), n=st.integers(1, 4),
       data=st.data())
def test_a_member_leaves_as_soon_as_its_neighbourhood_has_arrived(size, n,
                                                                  data):
    """Start skews far longer than the segment (a CR restore reading one
    checkpoint piece more than its neighbour is seconds against microsecond
    steps): a member more than ``n`` hops from every late starter is done
    before the last one arrives, exactly as in the per-message loop."""
    skews = data.draw(st.lists(st.sampled_from([0.0, 1e-6, 0.5, 1.0]),
                               min_size=size, max_size=size))
    comps = [1e-6 * (r % 3) for r in range(size)]

    async def main(ctx):
        await ctx.compute(skews[ctx.rank])
        out = await ctx.comm.ring_segment(n, ROW, comps[ctx.rank],
                                          2 ** ctx.rank, _arc_advance)
        return out, ctx.wtime()

    uni, job = launch(size, main)
    uni.run()
    outs, clocks = zip(*job.results())
    assert list(clocks) == ring_clocks(skews, OPL.p2p_cost(ROW), comps, n)
    assert list(outs) == _arc_advance([2 ** r for r in range(size)], n)
    assert uni.stats.messages == 2 * size * n
    assert job.world_state.segment is None
    assert check_runtime_leaks(uni).errors == []


# ----------------------------------------------------------------------
# the first arriver decides, for the group, for good
# ----------------------------------------------------------------------
@pytest.mark.parametrize("why", ["tracer", "revoked", "dead", "doomed"])
def test_every_term_of_the_predicate_sends_the_group_per_message(why):
    async def main(ctx):
        await ctx.compute(1.0)
        try:
            return await ctx.comm.ring_segment(2, ROW, 0.0, 0, _advance)
        except MPIError as exc:     # pragma: no cover - would be a bug
            return exc

    uni = Universe(OPL)
    if why == "tracer":
        uni.tracer = Tracer()
    job = uni.launch(3, main)
    state = job.world_state
    if why == "revoked":
        state.do_revoke(0.0)
    elif why == "dead":
        uni.kill_rank(job, 2)
    elif why == "doomed":               # due inside the segment
        at = 1.0 + OPL.p2p_cost(ROW)
        uni.kill_rank(job, 2, at=at)
        assert uni.doomed == {state.procs[2]: at}
    uni.run(raise_task_failures=False)
    assert job.results()[:2] == [None, None]
    assert state.per_message and state.segment is None
    assert not uni.doomed


def test_a_kill_aimed_at_another_group_leaves_this_one_co_simulating():
    async def main(ctx):
        sub = await ctx.comm.split(ctx.rank // 3, ctx.rank)
        out = await sub.ring_segment(2, ROW, 1e-6, ctx.rank, _advance)
        return out, sub.state.per_message

    uni, job = launch(6, main)
    # the segments start when the split completes; this kill lands in
    # rank 5's first step
    uni.kill_rank(job, 5, at=OPL.collective_cost(6, 16) + 1e-6)
    uni.run(raise_task_failures=False)
    assert job.results() == [(2, False), (3, False), (4, False)] \
        + [(None, True)] * 3


def test_a_pair_keeps_the_loop():
    """Both neighbours of a rank are the same process: the least to save
    (and docs/performance.md on what co-simulating pairs costs a server)."""
    async def main(ctx):
        return await ctx.comm.ring_segment(2, ROW, 1e-6, 0, _advance)

    uni, job = launch(2, main)
    uni.run()
    assert job.results() == [None, None] and job.world_state.per_message


def test_a_communicator_repaired_in_place_stays_per_message():
    """``readmit`` swaps a replacement into the membership: a segment that
    was open is doomed and the newcomer never joined it, so the group takes
    the standing decision a dead member would have given it."""
    async def main(ctx):
        if ctx.rank == 1:
            return await ctx.compute(1.0)
        with pytest.raises(ProcFailedError):
            await ctx.comm.ring_segment(1, ROW, 0.0, 0, _advance)
        await ctx.compute(2.0)
        return await ctx.comm.ring_segment(1, ROW, 0.0, 0, _advance)

    async def idle(ctx):
        pass

    uni, job = launch(3, main)
    spare = uni.launch(1, idle)
    state = job.world_state
    uni.engine.call_at(0.5, uni.kill_rank, job, 1)   # ranks 0 and 2 parked
    uni.engine.call_at(1.5, state.readmit, 1, spare.procs[0])
    uni.run(raise_task_failures=False)
    assert not state._dead_ranks and state.per_message
    assert state.segment is None
    assert job.results() == [None, None, None]


def test_the_decision_is_standing_even_if_the_reason_goes_away():
    async def main(ctx):
        first = await ctx.comm.ring_segment(1, ROW, 0.0, 0, _advance)
        if ctx.rank == 0:
            ctx.universe.tracer = None      # between two members' arrivals
        await ctx.compute(0.1 * ctx.rank)
        return first, await ctx.comm.ring_segment(1, ROW, 0.0, 0, _advance)

    uni, job = launch(3, main, traced=True)
    uni.run()
    assert job.results() == [(None, None)] * 3


# ----------------------------------------------------------------------
# a kill scheduled before the segment: stand only if it ends first
# ----------------------------------------------------------------------
RING, STEPS, VICTIM = 5, 3, 2
COMPS = [1e-6 * (r + 1) for r in range(RING)]


def solver(skews, n, segments):
    """The solver's ``step(n)``, ``segments`` times: a segment, or the
    exchange loop it stands for when ``ring_segment`` declines; then a
    barrier that meets any kill.  A rank that meets the failure revokes,
    as ``_step_guarded`` does.  Every rank reports its slab, clocks and
    errors."""
    async def main(ctx):
        comm, r, size = ctx.comm, ctx.rank, ctx.size
        await ctx.compute(skews[r])
        out, left, row = 10 * r, None, np.zeros(ROW // 8)
        try:
            for _ in range(segments):
                got = await comm.ring_segment(n, ROW, COMPS[r], out,
                                              _advance)
                if got is not None:
                    out = got
                    continue
                for _ in range(n):
                    await comm.exchange(
                        (((r - 1) % size, _UP, row.copy()),
                         ((r + 1) % size, _DOWN, row.copy())),
                        (((r - 1) % size, _DOWN), ((r + 1) % size, _UP)),
                        copy=False)
                    await ctx.compute(COMPS[r])
                    out += 1
            left = ctx.wtime()
            await comm.barrier()
        except MPIError as exc:
            comm.revoke()
            return out, left, type(exc).__name__, ctx.wtime()
        return out, left, None, ctx.wtime()
    return main


def run_solver(kill_at, *, traced=False, skews=(0.0,) * RING,
               schedule=None, n=STEPS, segments=1):
    """One run with ``VICTIM``'s kill due at ``kill_at``: everything a
    member sees, the counters, and whether the group co-simulated."""
    uni, job = launch(RING, solver(skews, n, segments), traced=traced)
    if schedule is None:
        uni.kill_rank(job, VICTIM, at=kill_at)
    else:       # from a callback, once the first segment has opened
        uni.engine.call_at(schedule, uni.kill_rank, job, VICTIM, kill_at)
    uni.run(raise_task_failures=False)      # never a DeadlockError
    assert check_runtime_leaks(uni).errors == []
    assert not uni.doomed and uni.stats.kills == 1
    stats = uni.stats
    return (job.results(), stats.messages, stats.bytes_sent,
            stats.collectives.total()), \
        not job.world_state.per_message


def test_a_kill_after_the_segment_co_simulates_the_per_message_run():
    end = ring_clocks([0.0] * RING, OPL.p2p_cost(ROW), COMPS, STEPS)
    kill_at = end[VICTIM] + 1e-6
    got, segmented = run_solver(kill_at)
    assert segmented
    traced, _ = run_solver(kill_at, traced=True)
    assert got == traced
    results = got[0]
    assert results[VICTIM] is None
    for r, (out, left, error, _t) in enumerate(results[:VICTIM]):
        assert (out, left, error) == (10 * r + STEPS, end[r],
                                      "ProcFailedError")


@pytest.mark.parametrize("ulps", [-1, 0, 1])
@pytest.mark.parametrize("step", range(1, STEPS + 1))
def test_a_kill_at_each_step_boundary_of_the_victim(step, ulps):
    """Around the victim's clock after each step: the segment stands only
    for a kill strictly after its last one, and either way every member
    sees what the per-message loop gives it."""
    ring = RingClocks(RING, OPL.p2p_cost(ROW), STEPS)
    for r in range(RING):
        ring.start(r, 0.0, COMPS[r])
    kill_at = ring.rows[step][VICTIM]
    for _ in range(abs(ulps)):
        kill_at = np.nextafter(kill_at, np.inf if ulps > 0 else -np.inf)
    got, segmented = run_solver(float(kill_at))
    assert segmented == (step == STEPS and ulps > 0)
    assert got == run_solver(float(kill_at), traced=True)[0]


def test_staggered_arrivals_with_a_kill_pending_fall_back():
    """Rank r arrives at r microseconds: the first arrival's instant ends
    with the others missing, so rank 0 takes the loop and the others find
    the standing decision — no rank waits on a segment nobody joins."""
    skews = [1e-6 * r for r in range(RING)]
    got, segmented = run_solver(1.0, skews=skews)
    assert not segmented
    assert got == run_solver(1.0, skews=skews, traced=True)[0]


def test_a_kill_due_at_the_arrival_instant_goes_per_message_at_once():
    """Every member arrives at 1 us, before the kill due at that instant
    fires: the deadline is not after the arrival, so nobody parks."""
    got, segmented = run_solver(1e-6, skews=[1e-6] * RING, schedule=0.5e-6)
    assert not segmented
    assert got == run_solver(1e-6, skews=[1e-6] * RING, schedule=0.5e-6,
                             traced=True)[0]


def test_a_member_ahead_of_an_open_segment_takes_the_loop_at_once():
    """Rank 4 starts a second late, so ranks 1 and 2 leave the first
    one-step segment long before it and open the second while the first
    still awaits it; a kill scheduled meanwhile sends them to the loop
    without disturbing the segment rank 4 has yet to join."""
    skews = [0.0, 0.0, 0.0, 0.0, 1.0]
    args = dict(skews=skews, schedule=0.5e-6, n=1, segments=2)
    got, segmented = run_solver(2.0, **args)
    assert not segmented
    assert got == run_solver(2.0, traced=True, **args)[0]


# ----------------------------------------------------------------------
# late and repeated kills
# ----------------------------------------------------------------------
def staggered(n_steps=4, then_barrier=False):
    """Rank r reaches the segment at r microseconds; survivors report how
    they left it (and, optionally, what the next barrier told them)."""
    async def main(ctx):
        await ctx.compute(1e-6 * ctx.rank)
        try:
            out = await ctx.comm.ring_segment(n_steps, ROW, 1e-6, ctx.rank,
                                              _advance)
        except MPIError as exc:
            return type(exc).__name__, ctx.wtime()
        left = ctx.wtime()
        if then_barrier:
            with pytest.raises(ProcFailedError):
                await ctx.comm.barrier()
        return out, left
    return main


@pytest.mark.parametrize("victim", [0, 3], ids=["parked", "not-yet-arrived"])
def test_kill_scheduled_after_part_of_the_group_parked(victim):
    """Only an engine callback can schedule a kill this late.  Ranks 0 and
    1 are parked and rank 2 joins the open round before the kill fires:
    everyone gets the error a NORMAL collective round would give them."""
    uni, job = launch(4, staggered())
    state = job.world_state
    uni.engine.call_at(1.5e-6, uni.kill_rank, job, victim, 2.5e-6)
    uni.run(raise_task_failures=False)          # never a DeadlockError
    detect = OPL.failure_detection_latency
    for r, res in enumerate(job.results()):
        if r == victim:
            assert res is None
        elif r == 3:    # arrived after the doom: detect after *its* arrival
            assert res == ("ProcFailedError", 3e-6 + detect)
        else:
            assert res == ("ProcFailedError", 2.5e-6 + detect)
    assert state.segment is None and not uni.doomed
    assert check_runtime_leaks(uni).errors == []


def test_kill_after_the_rendezvous_completed_takes_effect_at_the_boundary():
    """The round completes at 3 us and every rank's resume is later than
    that; rank 1 dies in between.  It never resumes; its peers finish the
    segment with the slabs and clocks of the failure-free run and meet the
    failure at the detection point."""
    uni, job = launch(4, staggered(then_barrier=True))
    uni.engine.call_at(3.5e-6, uni.kill_rank, job, 1)
    uni.run(raise_task_failures=False)
    quiet, qjob = launch(4, staggered())
    quiet.run()
    assert min(t for _, t in qjob.results()) > 3.5e-6
    expected = qjob.results()
    expected[1] = None
    assert job.results() == expected
    assert uni.stats.kills == 1 and not uni.doomed
    assert check_runtime_leaks(uni).errors == []


def test_repeated_and_posthumous_kills_leave_no_doomed_entry():
    """A stale entry would silently pin its group to the per-message path."""
    uni, job = launch(4, staggered())
    procs = job.world_state.procs
    uni.kill_rank(job, 2, at=1.0)
    uni.kill_rank(job, 2, at=2.0)               # two kills, one process
    uni.kill_rank(job, 3)                       # dead now ...
    uni.kill_rank(job, 3, at=3.0)               # ... and killed again later
    assert uni.doomed == {procs[2]: 1.0}
    uni.run(raise_task_failures=False)
    assert not uni.doomed and uni.stats.kills == 2


def test_revoke_dooms_the_open_round_like_any_normal_round():
    async def main(ctx):
        if ctx.rank == 2:
            await ctx.compute(1e-6)
            ctx.comm.revoke()
            await ctx.compute(1.0)
        with pytest.raises(RevokedError):
            await ctx.comm.ring_segment(1, ROW, 0.0, 0, _advance)
        return ctx.wtime()

    uni, job = launch(3, main)
    uni.run()
    revoked_at = 1e-6 + OPL.ulfm.revoke(3)
    detect = OPL.failure_detection_latency
    assert job.results() == [revoked_at + detect, revoked_at + detect,
                             1e-6 + 1.0 + detect]
    assert job.world_state.segment is None


def test_the_deadlock_explainer_names_the_segment_and_who_is_missing():
    async def main(ctx):
        if ctx.rank != 2:       # rank 2 returns without ever stepping
            await ctx.comm.ring_segment(1, ROW, 0.0, 0, _advance)

    uni, job = launch(3, main)
    with pytest.raises(DeadlockError) as excinfo:
        uni.run()
    name = job.name
    assert (f"{name}.0 waits for segment on {name}.world <- blocked on: "
            f"{name}.2") in str(excinfo.value)
    blocked = [p.task for p in job.procs[:2]]
    assert "segment on" in format_wait_for_graph(blocked)


# ----------------------------------------------------------------------
# one instant, one charge: the closed form; anything else: the walk
# ----------------------------------------------------------------------
def uniform_ring(n, comps, starts):
    """Each rank enters one ``n``-step segment at ``starts[r]`` charging
    ``comps[r]`` per step; untraced it co-simulates, traced it is the
    per-message loop.  Every rank reports its value and resume clock."""
    async def main(ctx):
        comm, r, size = ctx.comm, ctx.rank, ctx.size
        await ctx.compute(starts[r])
        got = await comm.ring_segment(n, ROW, comps[r], 10 * r, _advance)
        if got is None:
            got, row = 10 * r, np.zeros(ROW // 8)
            for _ in range(n):
                if size > 1:
                    await comm.exchange(
                        (((r - 1) % size, _UP, row.copy()),
                         ((r + 1) % size, _DOWN, row.copy())),
                        (((r - 1) % size, _DOWN), ((r + 1) % size, _UP)),
                        copy=False)
                await ctx.compute(comps[r])
                got += 1
        return got, ctx.wtime()
    return main


@pytest.fixture
def walks(monkeypatch):
    """Counts the ``RingClocks.start`` calls of the runs that follow."""
    calls = []
    start = RingClocks.start

    def counted(self, rank, at, compute):
        calls.append(rank)
        return start(self, rank, at, compute)

    monkeypatch.setattr(RingClocks, "start", counted)
    return calls


def run_ring(n, comps, starts, traced):
    uni, job = launch(len(comps), uniform_ring(n, comps, starts),
                      traced=traced)
    uni.run()
    assert check_runtime_leaks(uni).errors == []
    return job.results(), uni.stats.messages, uni.stats.bytes_sent


@pytest.mark.parametrize("compute", [0.0, 3e-6], ids=["free", "charged"])
@pytest.mark.parametrize("size", [1, 3, 5, 8, 128])
def test_one_instant_one_charge_is_the_closed_form(size, compute, walks):
    """Every member enters at one instant with one charge: the round
    releases all of them at ``RingClocks.uniform``, which is the walk's
    clock and the per-message loop's, value and clock, for n = 1..8."""
    cost, starts, comps = OPL.p2p_cost(ROW), [2e-6] * size, [compute] * size
    for n in range(1, 9):
        closed = RingClocks(size, cost, n).uniform(2e-6, compute)
        walked = ring_clocks(starts, cost, comps, n)
        assert walked == [closed] * size
        del walks[:]
        segment = run_ring(n, comps, starts, traced=False)
        assert walks == []
        loop = run_ring(n, comps, starts, traced=True)
        assert segment == loop
        assert segment[0] == [(10 * r + n, closed) for r in range(size)]


@pytest.mark.parametrize("size", [3, 5, 8, 128])
@pytest.mark.parametrize("odd", ["taller-slab", "late"])
def test_any_other_round_replays_through_the_walk(size, odd, walks):
    """One member charges more per step (a taller slab) in the same
    instant, or enters an instant late: the round walks the ring clocks
    and every member leaves at the per-message loop's clock."""
    comps, starts = [1e-6] * size, [0.0] * size
    if odd == "late":
        starts[size // 2] = 1e-9
    else:
        comps[size // 2] = 1.5e-6
    for n in (1, 2, 5):
        del walks[:]
        segment = run_ring(n, comps, starts, traced=False)
        assert sorted(walks) == list(range(size))
        assert segment == run_ring(n, comps, starts, traced=True)
        clocks = ring_clocks(starts, OPL.p2p_cost(ROW), comps, n)
        assert [t for _out, t in segment[0]] == clocks


@pytest.mark.parametrize("kill_after", [True, False],
                         ids=["stands", "falls-back"])
def test_a_round_with_victims_is_decided_exactly_once(kill_after,
                                                     monkeypatch):
    """The last arrival and the end-of-instant callback both ask; only the
    first decides, and either way every member sees the per-message run."""
    from repro.mpi.collectives import SegmentRound

    decisions = []
    decide = SegmentRound.decide

    def counted(self):
        if not self.decided and self.doom is None:
            decisions.append(self)
        return decide(self)

    monkeypatch.setattr(SegmentRound, "decide", counted)
    end = ring_clocks([0.0] * RING, OPL.p2p_cost(ROW), COMPS, STEPS)
    kill_at = end[VICTIM] + (1e-6 if kill_after else -1e-9)
    got, segmented = run_solver(kill_at)
    assert segmented == kill_after
    assert len(decisions) == len(set(decisions)) == 1
    monkeypatch.setattr(SegmentRound, "decide", decide)
    assert got == run_solver(kill_at, traced=True)[0]
