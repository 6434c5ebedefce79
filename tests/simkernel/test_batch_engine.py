"""Batched resume path: ordering identity, event pooling, future recycling."""

import pytest

from repro.simkernel import Engine, SimFuture, Sleep
from repro.simkernel.engine import _EVENT_POOL_CAP


def _wake_trace(batched: bool, n: int = 8, at: float = 3.0):
    """Resolve one future with ``n`` parked waiters and record the resume
    order, through either the batched or the per-waiter path."""
    eng = Engine(trace=True)
    fut = eng.create_future()
    order = []

    async def waiter(i):
        await fut
        order.append((i, eng.now))

    for i in range(n):
        eng.spawn(waiter(i), name=f"w{i}")

    async def completer():
        await Sleep(1.0)
        if batched:
            eng.schedule_futures_batch((fut,), "v", at)
        else:
            fut.set_result("v", at=at)

    eng.spawn(completer(), name="completer")
    eng.run()
    return order, list(eng.trace), eng.now


def test_batched_resume_order_matches_per_waiter_path():
    batched = _wake_trace(True)
    plain = _wake_trace(False)
    assert batched == plain
    order, _trace, final = batched
    assert order == [(i, 3.0) for i in range(8)]
    assert final == 3.0


def _wake_many_trace(batched: bool, n: int = 6, at: float = 3.0):
    """One future per waiter, all resolved with one value at one instant;
    the last waiter awaits only after the resolution."""
    eng = Engine(trace=True)
    futs = [eng.create_future() for _ in range(n)]
    order = []

    async def waiter(i):
        if i == n - 1:
            await Sleep(2.0)
        order.append((i, await futs[i], eng.now))

    for i in range(n):
        eng.spawn(waiter(i), name=f"w{i}")

    async def completer():
        await Sleep(1.0)
        if batched:
            eng.schedule_futures_batch(futs, "v", at)
        else:
            for fut in futs:
                fut.set_result("v", at=at)

    eng.spawn(completer(), name="completer")
    eng.run()
    return order, list(eng.trace), eng.events_processed


def test_batched_futures_resume_as_one_set_result_each():
    batched = _wake_many_trace(True)
    assert batched == _wake_many_trace(False)
    assert batched[0] == [(i, "v", 3.0) for i in range(6)]


def test_batched_resume_counts_logical_events():
    """One _EV_BATCH event still counts as n resumes in events_processed."""
    eng_b = Engine()
    eng_p = Engine()
    for eng, batched in ((eng_b, True), (eng_p, False)):
        fut = eng.create_future()

        async def waiter():
            await fut

        for _ in range(5):
            eng.spawn(waiter())

        async def completer(eng=eng, fut=fut, batched=batched):
            await Sleep(1.0)
            if batched:
                eng.schedule_futures_batch((fut,), None, eng.now)
            else:
                fut.set_result(None)

        eng.spawn(completer())
        eng.run()
    assert eng_b.events_processed == eng_p.events_processed


def test_batched_single_waiter_takes_plain_resume():
    eng = Engine()
    fut = eng.create_future()
    seen = []

    async def waiter():
        seen.append(await fut)

    eng.spawn(waiter())

    async def completer():
        await Sleep(1.0)
        eng.schedule_futures_batch((fut,), 7, 2.0)

    eng.spawn(completer())
    eng.run()
    assert seen == [7] and eng.now == 2.0


def test_batched_resume_skips_killed_waiter():
    """Killing a parked task discards its waiter entry, so a later batched
    resolution never steps the dead task."""
    eng = Engine()
    fut = eng.create_future()
    woke = []

    async def waiter(i):
        await fut
        woke.append(i)

    tasks = [eng.spawn(waiter(i)) for i in range(3)]

    async def killer():
        await Sleep(0.5)
        eng.kill(tasks[1])
        await Sleep(0.5)
        eng.schedule_futures_batch((fut,), None, eng.now)

    eng.spawn(killer())
    eng.run(raise_task_failures=False)
    assert woke == [0, 2]


def test_take_waiters_resolves_and_returns_parked_tasks():
    eng = Engine()
    fut = eng.create_future()

    async def waiter():
        await fut

    t0 = eng.spawn(waiter())
    t1 = eng.spawn(waiter())
    eng.run(until=0.0)  # park both
    got = fut.take_waiters("x", at=5.0)
    assert got == [t0, t1]
    assert fut.done and fut.result() == "x" and fut.resolution_time == 5.0
    assert fut._waiters == []


def test_take_waiters_refuses_callbacks_and_done():
    eng = Engine()
    fut = eng.create_future()
    fut.add_done_callback(lambda f: None)
    with pytest.raises(RuntimeError, match="done-callbacks"):
        fut.take_waiters(None)
    fut2 = eng.create_future()
    fut2.set_result(1)
    with pytest.raises(RuntimeError, match="already resolved"):
        fut2.take_waiters(None)


def test_future_recycle_resets_to_pristine():
    eng = Engine()
    fut = eng.create_future()
    fut.set_result(41, at=2.0)
    fut.recycle()
    assert not fut.done
    fut.set_result(42, at=3.0)
    assert fut.result() == 42 and fut.resolution_time == 3.0


def test_event_pool_reuses_records_and_stays_capped():
    eng = Engine()

    async def ticker():
        for _ in range(50):
            await Sleep(0.1)

    for _ in range(4):
        eng.spawn(ticker())
    eng.run()
    # steady state: a handful of live records cycle through the pool
    assert 0 < len(eng._pool) <= _EVENT_POOL_CAP
    pooled = list(eng._pool)
    for ev in pooled:
        assert ev.a is None and ev.b is None and ev.c is None

    # a second workload on the same engine checks out the pooled records
    async def once():
        await Sleep(1.0)
        return eng.now

    t = eng.spawn(once())
    eng.run()
    assert t.result == eng.now


def test_pooled_scheduling_identical_to_fresh_engine():
    """Event ordering is unchanged by pool hits: a warmed-up engine runs a
    program with the same trace as a cold one."""
    def run(warm):
        eng = Engine()
        if warm:
            async def burn():
                for _ in range(20):
                    await Sleep(0.01)
            eng.spawn(burn())
            eng.run()
        eng.trace_enabled = True
        start = eng.now
        order = []

        async def job(i):
            await Sleep(0.5 * (i + 1))
            order.append(i)

        for i in range(6):
            eng.spawn(job(i))
        eng.run()
        return order, [(round(t - start, 9), name, what)
                       for t, name, what in eng.trace]

    # task names differ (taskN counter), compare structure via enumeration
    cold_order, cold_trace = run(False)
    warm_order, warm_trace = run(True)
    assert cold_order == warm_order
    assert [(t, what) for t, _n, what in cold_trace] == \
        [(t, what) for t, _n, what in warm_trace]
