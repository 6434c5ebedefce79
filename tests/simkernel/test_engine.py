"""Engine: virtual time, scheduling order, kills, deadlock detection."""

import pytest

from repro.simkernel import (DeadlockError, Engine, SimFuture, Sleep,
                             TaskFailedError, TaskState)
from repro.simkernel.errors import SimulationLimitError


def test_sleep_advances_virtual_time():
    eng = Engine()
    times = []

    async def main():
        times.append(eng.now)
        await Sleep(2.5)
        times.append(eng.now)
        await Sleep(0.5)
        times.append(eng.now)

    eng.spawn(main())
    final = eng.run()
    assert times == [0.0, 2.5, 3.0]
    assert final == 3.0


def test_zero_sleep_is_legal():
    eng = Engine()

    async def main():
        await Sleep(0.0)
        return eng.now

    t = eng.spawn(main())
    eng.run()
    assert t.result == 0.0


def test_negative_sleep_rejected():
    with pytest.raises(ValueError):
        Sleep(-1.0)


def test_task_result_and_state():
    eng = Engine()

    async def main():
        return 42

    task = eng.spawn(main())
    eng.run()
    assert task.state is TaskState.DONE
    assert task.result == 42


def test_many_tasks_deterministic_order():
    """Two identical runs produce identical traces."""
    def build():
        eng = Engine(trace=True)
        order = []

        async def worker(i):
            await Sleep(float(i % 3))
            order.append(i)
            await Sleep(0.1 * i)
            order.append(-i)

        for i in range(20):
            eng.spawn(worker(i), name=f"w{i}")
        eng.run()
        return order, eng.trace

    o1, t1 = build()
    o2, t2 = build()
    assert o1 == o2
    assert t1 == t2


def test_future_resolution_wakes_waiter_at_future_time():
    eng = Engine()
    fut = eng.create_future("x")
    got = []

    async def waiter():
        got.append(await fut)
        got.append(eng.now)

    async def setter():
        await Sleep(1.0)
        fut.set_result("hello", at=5.0)  # resolves "in the future"

    eng.spawn(waiter())
    eng.spawn(setter())
    eng.run()
    assert got == ["hello", 5.0]


def test_future_exception_propagates():
    eng = Engine()
    fut = eng.create_future()

    async def waiter():
        with pytest.raises(ValueError, match="boom"):
            await fut
        return "survived"

    async def setter():
        fut.set_exception(ValueError("boom"))

    t = eng.spawn(waiter())
    eng.spawn(setter())
    eng.run()
    assert t.result == "survived"


def test_a_reraised_exception_keeps_the_frames_it_was_thrown_through():
    eng = Engine()
    fut = eng.create_future()

    async def inner():
        await fut

    async def waiter():
        try:
            await inner()
        finally:
            await Sleep(1.0)        # re-raised only after a later step

    t = eng.spawn(waiter())
    fut.set_exception(ValueError("boom"), at=1.0)
    eng.run(raise_task_failures=False)
    tb, names = t.exception.__traceback__, []
    while tb is not None:
        names.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert "inner" in names


def test_a_shared_exception_carries_only_the_last_throw():
    eng = Engine()
    fut = eng.create_future()

    async def waiter():
        with pytest.raises(ValueError):
            await fut

    for _ in range(3):
        eng.spawn(waiter())
    exc = ValueError("shared")
    fut.set_exception(exc, at=1.0)
    eng.run()
    names, tb = [], exc.__traceback__
    while tb is not None:
        names.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert names.count("waiter") == 1
    eng.close()
    assert exc.__traceback__ is None


def test_await_already_resolved_future():
    eng = Engine()
    fut = eng.create_future()
    fut.set_result(7, at=3.0)

    async def main():
        v = await fut
        return (v, eng.now)

    t = eng.spawn(main())
    eng.run()
    assert t.result == (7, 3.0)


def test_unhandled_task_exception_raises_from_run():
    eng = Engine()

    async def bad():
        raise RuntimeError("oops")

    eng.spawn(bad())
    with pytest.raises(TaskFailedError) as exc_info:
        eng.run()
    assert isinstance(exc_info.value.original, RuntimeError)


def test_run_can_suppress_task_failures():
    eng = Engine()

    async def bad():
        raise RuntimeError("oops")

    t = eng.spawn(bad())
    eng.run(raise_task_failures=False)
    assert t.state is TaskState.FAILED


def test_deadlock_detection():
    eng = Engine()
    fut = eng.create_future("never")

    async def stuck():
        await fut

    eng.spawn(stuck(), name="stuck")
    with pytest.raises(DeadlockError) as exc_info:
        eng.run()
    assert "stuck" in str(exc_info.value)


def test_kill_prevents_resume_and_runs_finally():
    eng = Engine()
    fut = eng.create_future()
    cleaned = []

    async def victim():
        try:
            await fut
        finally:
            cleaned.append(True)

    task = eng.spawn(victim(), name="victim")

    async def killer():
        await Sleep(1.0)
        eng.kill(task)

    eng.spawn(killer())
    eng.run()
    assert task.state is TaskState.KILLED
    assert cleaned == [True]
    assert not fut._waiters  # waiter was discarded


def test_kill_hooks_fire_once():
    eng = Engine()
    fired = []

    async def victim():
        await Sleep(10.0)

    task = eng.spawn(victim())
    task.add_kill_hook(lambda t: fired.append(t.name))
    eng.kill(task)
    eng.kill(task)  # idempotent
    eng.run()
    assert len(fired) == 1


def test_call_at_and_call_later():
    eng = Engine()
    seen = []

    async def main():
        await Sleep(5.0)

    eng.spawn(main())
    eng.call_at(2.0, lambda: seen.append(("at", eng.now)))
    eng.call_later(3.0, lambda: seen.append(("later", eng.now)))
    eng.run()
    assert seen == [("at", 2.0), ("later", 3.0)]


def test_join_future():
    eng = Engine()

    async def child():
        await Sleep(2.0)
        return "done"

    async def parent():
        t = eng.spawn(child())
        return await t.done_future

    p = eng.spawn(parent())
    eng.run()
    assert p.result == "done"
    assert eng.now == 2.0


def test_spawn_at_future_time():
    eng = Engine()
    started = []

    async def late():
        started.append(eng.now)

    eng.spawn(late(), at=4.0)
    eng.run()
    assert started == [4.0]


def test_event_limit():
    eng = Engine(max_events=50)

    async def spinner():
        while True:
            await Sleep(1.0)

    eng.spawn(spinner())
    with pytest.raises(SimulationLimitError):
        eng.run()


def test_awaiting_garbage_is_an_error():
    eng = Engine()

    async def bad():
        await _NotATrap()

    eng.spawn(bad())
    with pytest.raises(RuntimeError, match="unsupported"):
        eng.run()


class _NotATrap:
    def __await__(self):
        yield self


def test_run_until_pauses_clock():
    eng = Engine()
    hits = []

    async def ticker():
        for _ in range(10):
            await Sleep(1.0)
            hits.append(eng.now)

    eng.spawn(ticker())
    eng.run(until=3.5)
    assert hits == [1.0, 2.0, 3.0]
    eng.run()
    assert hits[-1] == 10.0


def test_run_until_advances_clock_to_horizon():
    """run(until=) must leave now == until even when the queue drains or
    breaks early, so deadlines scheduled afterwards via call_later are
    relative to the requested horizon (regression test)."""
    eng = Engine()

    async def once():
        await Sleep(1.0)

    eng.spawn(once())
    assert eng.run(until=5.0) == 5.0
    assert eng.now == 5.0

    fired = []
    eng.call_later(1.0, lambda: fired.append(eng.now))
    eng.run(until=10.0)
    assert fired == [6.0]
    assert eng.now == 10.0

    # an engine with no events at all still advances to the horizon
    eng2 = Engine()
    assert eng2.run(until=2.5) == 2.5
    assert eng2.now == 2.5
