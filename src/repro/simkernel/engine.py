"""Deterministic discrete-event engine driving coroutine tasks in virtual time.

The engine keeps two event stores that together behave exactly like one
priority queue ordered by ``(time, seq)``:

* a binary heap of slotted :class:`_Event` records for events scheduled at a
  *future* virtual time, tie-broken by a monotonically increasing ``seq``;
* a FIFO deque for events scheduled at the *current* virtual time (zero-
  duration sleeps, already-resolved futures, ``call_at(now)``).

The split is safe because ``seq`` is global and monotone: every heap entry
at time ``T`` was necessarily pushed before the clock reached ``T`` (an
event scheduled once ``now == T`` goes to the deque instead), so all heap
entries at ``T`` precede all deque entries in ``seq`` order, and the deque
itself is FIFO.  Draining heap entries at ``now`` first, then the deque,
therefore reproduces the exact ``(time, seq)`` order of a single heap —
two runs of the same program produce the *identical* event order, a
property the test suite checks and which the fault-tolerance experiments
rely on for reproducible failure timing.

Virtual time is completely decoupled from wall-clock time: a task only
advances the clock by awaiting :class:`~repro.simkernel.traps.Sleep` (the
machine model charges compute/IO/network costs this way) or by blocking on a
:class:`~repro.simkernel.traps.SimFuture` resolved at a later time.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Coroutine, Iterable, Optional

from .errors import DeadlockError, SimulationLimitError, TaskFailedError
from .task import Task, TaskState
from .traps import _TRAP_FUTURE, _TRAP_SLEEP, SimFuture, Sleep

#: event kinds (int tags — compared with ``==`` in the hot loop)
_EV_RESUME = 0
_EV_CALL = 1
_EV_BATCH = 2

#: upper bound on recycled ``_Event`` records kept per engine; beyond this
#: the allocator churn being avoided is already amortised and holding more
#: would only pin memory after a burst (e.g. a wide collective round)
_EVENT_POOL_CAP = 4096

#: pre-bound enum members — saves an attribute hop per state transition
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_WAITING = TaskState.WAITING
_DONE = TaskState.DONE
_FAILED = TaskState.FAILED
_KILLED = TaskState.KILLED


class _Event:
    """Slotted scheduler record.

    ``kind`` selects the payload interpretation:

    * ``_EV_RESUME`` — ``a`` is the task, ``b`` the send value, ``c`` the
      exception to throw (or None);
    * ``_EV_CALL`` — ``a`` is the callable, ``b`` its argument tuple;
    * ``_EV_BATCH`` — ``a`` is a list of tasks resumed back-to-back (in list
      order) with the shared send value ``b``.  One heap/deque entry stands
      in for ``len(a)`` consecutive ``_EV_RESUME`` events with consecutive
      seqs, which is exactly what makes a batched wake-up bit-identical
      to per-task resume events (see ``Engine.schedule_futures_batch``).
    """

    __slots__ = ("time", "seq", "kind", "a", "b", "c")

    def __init__(self, time: float, seq: int, kind: int, a, b, c):
        self.time = time
        self.seq = seq
        self.kind = kind
        self.a = a
        self.b = b
        self.c = c

    def __lt__(self, other: "_Event") -> bool:
        st, ot = self.time, other.time
        return st < ot or (st == ot and self.seq < other.seq)


class Engine:
    """Virtual-time coroutine scheduler."""

    def __init__(self, *, trace: bool = False, max_events: int = 50_000_000):
        self.now: float = 0.0
        self._seq = 0
        self._queue: list[_Event] = []          # heap: events at future times
        self._immediate: deque[_Event] = deque()  # FIFO: events at time `now`
        self._tasks: dict[int, Task] = {}
        self._tid = 0
        self.max_events = max_events
        self.events_processed = 0
        self._pool: list[_Event] = []           # recycled _Event records
        self.trace_enabled = trace
        self.trace: list[tuple] = []
        self.failed_tasks: list[Task] = []
        #: every exception thrown into a task: ``close`` drops their
        #: tracebacks, whose frames would keep the finished run alive
        self._thrown: list[BaseException] = []

    # ------------------------------------------------------------------
    # task management
    # ------------------------------------------------------------------
    def spawn(self, coro: Coroutine, name: str = "", *, at: Optional[float] = None) -> Task:
        """Create a task and schedule its first step at ``at`` (default: now)."""
        self._tid += 1
        task = Task(self, self._tid, name or f"task{len(self._tasks)}", coro)
        self._tasks[task.tid] = task
        task.state = TaskState.READY
        start = self.now if at is None else max(at, self.now)
        task.started_at = start
        self._schedule(start, _EV_RESUME, task, None, None)
        return task

    def create_future(self, label: str = "") -> SimFuture:
        return SimFuture(self, label)

    def kill(self, task: Task) -> None:
        """Fail-stop termination: the task never runs again.

        Kill hooks fire first (so the MPI layer can fail pending partners),
        then the coroutine is closed, raising ``GeneratorExit`` at its
        current suspension point so ``finally`` blocks still run.
        """
        if not task.alive:
            return
        if task.blocked and isinstance(task.waiting_on, SimFuture):
            task.waiting_on.discard_waiter(task)
        task.state = TaskState.KILLED
        task.finished_at = self.now
        for hook in list(task.kill_hooks):
            hook(task)
        task.kill_hooks.clear()
        try:
            task.coro.close()
        except RuntimeError:  # pragma: no cover - coroutine being stepped
            pass
        if not task.done_future.done:
            task.done_future.set_exception(TaskFailedError(task, GeneratorExit("killed")))

    def tasks(self) -> Iterable[Task]:
        return self._tasks.values()

    def close(self) -> None:
        """A finished run's teardown: drop every task (each points back
        here), the recycled event records and the tracebacks of the
        exceptions thrown into tasks."""
        self._tasks.clear()
        self._pool.clear()
        for exc in self._thrown:
            exc.__traceback__ = None
        self._thrown.clear()

    # ------------------------------------------------------------------
    # event queue
    # ------------------------------------------------------------------
    def _schedule(self, time: float, kind: int, a, b, c) -> None:
        """Queue an event at virtual time ``time`` (must be >= now).

        Events at exactly ``now`` take the O(1) deque fast path; their FIFO
        position encodes the same ordering a heap push with the next global
        seq would produce (see module docstring).

        Records are checked out of a free list when available: the run loop
        recycles every dispatched event, so steady-state scheduling does no
        allocation at all.
        """
        pool = self._pool
        if pool:
            ev = pool.pop()
            ev.kind = kind
            ev.a = a
            ev.b = b
            ev.c = c
            if time <= self.now:
                ev.time = self.now
                ev.seq = 0
                self._immediate.append(ev)
            else:
                self._seq += 1
                ev.time = time
                ev.seq = self._seq
                heapq.heappush(self._queue, ev)
            return
        if time <= self.now:
            self._immediate.append(_Event(self.now, 0, kind, a, b, c))
        else:
            self._seq += 1
            heapq.heappush(self._queue, _Event(time, self._seq, kind, a, b, c))

    def stamp(self) -> tuple:
        """Monotone ``(now, seq)`` pair for observability ordering.

        Span recorders need a deterministic order for intervals that open
        or close at the same virtual instant; the scheduler's global
        sequence counter provides exactly that tie-break.  Consuming a seq
        here is safe: scheduling only requires ``seq`` to be monotone, not
        dense.
        """
        self._seq += 1
        return (self.now, self._seq)

    def call_at(self, time: float, fn, *args) -> None:
        """Run ``fn(*args)`` at virtual time ``time`` (>= now)."""
        self._schedule(max(time, self.now), _EV_CALL, fn, args, None)

    def call_later(self, delay: float, fn, *args) -> None:
        self.call_at(self.now + delay, fn, *args)

    def _wake_from_future(self, task: Task, fut: SimFuture) -> None:
        """Called by SimFuture when it resolves with ``task`` blocked on it."""
        s = task.state
        if s is _DONE or s is _FAILED or s is _KILLED:  # task.alive, inlined
            return
        task.state = _READY
        task.waiting_on = None
        when = fut._time
        if when < self.now:
            when = self.now
        self._schedule(when, _EV_RESUME, task, fut._result, fut._exception)

    def schedule_futures_batch(self, futs: Iterable[SimFuture], value: Any,
                               at: float) -> None:
        """Resolve each of ``futs`` with ``value`` at ``at``, waking all
        their parked waiters through a *single* batched resume event
        instead of one event each.

        Bit-identity with the per-waiter path: ``set_result`` on each
        future, in ``futs`` order, would schedule one ``_EV_RESUME`` per
        waiter, in park order, with consecutive seqs — and nothing can
        interleave with those seqs, because they are claimed inside one
        uninterrupted call.  A single ``_EV_BATCH`` carrying the same list
        therefore dispatches the same steps in the same order at the same
        virtual time.  A future nobody waits on yet wakes its task when
        awaited, as after ``set_result``."""
        waiters = []
        for fut in futs:
            waiters += fut.take_waiters(value, at)
        self._resume_batch(waiters, value, max(at, self.now))

    def _resume_batch(self, waiters: list, value: Any, when: float) -> None:
        if waiters:
            for task in waiters:
                task.state = _READY
                task.waiting_on = None
            if len(waiters) == 1:
                self._schedule(when, _EV_RESUME, waiters[0], value, None)
            else:
                self._schedule(when, _EV_BATCH, waiters, value, None)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, *, until: Optional[float] = None, raise_task_failures: bool = True) -> float:
        """Process events until the queue drains (or virtual time ``until``).

        Returns the final virtual time.  When ``until`` is given and the
        queue did not drain first, the clock is advanced to ``until`` on
        return, so deadlines scheduled afterwards via :meth:`call_later`
        are relative to the requested horizon.  Raises
        :class:`DeadlockError` if the queue drains while live tasks are
        still blocked, and :class:`TaskFailedError` for the first task that
        died with an unhandled exception (unless
        ``raise_task_failures=False``).
        """
        queue = self._queue
        immediate = self._immediate
        heappop = heapq.heappop
        step = self._step
        pool = self._pool
        processed = self.events_processed
        limit = self.max_events
        try:
            while True:
                if queue and queue[0].time <= self.now:
                    # heap entries at the current time predate every deque entry
                    if until is not None and queue[0].time > until:
                        break
                    ev = heappop(queue)
                elif immediate:
                    if until is not None and immediate[0].time > until:
                        break
                    ev = immediate.popleft()
                elif queue:
                    t = queue[0].time
                    if until is not None and t > until:
                        break
                    ev = heappop(queue)
                    self.now = t
                else:
                    break
                processed += 1
                if processed > limit:
                    raise SimulationLimitError(
                        f"exceeded {limit} events at t={self.now:g}")
                kind = ev.kind
                a, b, c = ev.a, ev.b, ev.c
                # recycle before dispatch: the step may schedule new events,
                # and handing it this (already-popped) record is safe
                if len(pool) < _EVENT_POOL_CAP:
                    ev.a = ev.b = ev.c = None
                    pool.append(ev)
                if kind == _EV_RESUME:
                    step(a, b, c)
                elif kind == _EV_CALL:
                    a(*b)
                elif kind == _EV_BATCH:
                    # count every logical resume: events_processed means
                    # task steps, however they were queued
                    processed += len(a) - 1
                    for task in a:
                        step(task, b, None)
                else:  # pragma: no cover - defensive
                    raise RuntimeError(f"unknown event kind {kind!r}")
        finally:
            # the counter lives in a local inside the loop; publish it even
            # when an event raises so observers always see the true count
            self.events_processed = processed

        if until is not None and until > self.now:
            self.now = until
        if raise_task_failures and self.failed_tasks:
            t = self.failed_tasks[0]
            raise TaskFailedError(t, t.exception) from t.exception
        if until is None:
            blocked = [t for t in self._tasks.values() if t.alive and t.blocked]
            if blocked:
                try:  # best effort: explain who waits on whom (and any cycle)
                    from ..analysis.races import format_wait_for_graph
                    wait_graph = format_wait_for_graph(blocked)
                except Exception:  # noqa: ULF001 - never mask the deadlock
                    wait_graph = ""
                raise DeadlockError(blocked, wait_graph=wait_graph)
        return self.now

    def _step(self, task: Task, value: Any, exc: Optional[BaseException]) -> None:
        if task.state is not _READY:
            return
        task.state = _RUNNING
        if self.trace_enabled:
            self.trace.append((self.now, task.name, "step"))
        try:
            if exc is not None:
                # a shared exception (a doomed round's reaches every
                # member) starts each throw afresh instead of growing one
                # traceback over every task it reached
                exc.__traceback__ = None
                self._thrown.append(exc)
                trap = task.coro.throw(exc)
            else:
                trap = task.coro.send(value)
        except StopIteration as stop:
            task.state = _DONE
            task.result = stop.value
            task.finished_at = self.now
            task.done_future.set_result(stop.value)
            return
        except BaseException as err:  # task died with unhandled exception
            task.state = _FAILED
            task.exception = err
            task.finished_at = self.now
            self.failed_tasks.append(task)
            task.done_future.set_exception(TaskFailedError(task, err))
            return

        # type-tag dispatch: cheaper than an isinstance chain, and subclasses
        # of Sleep/SimFuture inherit the tag so they stay legal traps
        try:
            tag = trap._trap_tag
        except AttributeError:
            raise RuntimeError(
                f"task {task.name} awaited unsupported object {trap!r}; "
                "only Sleep and SimFuture are legal traps") from None
        if tag == _TRAP_SLEEP:
            task.state = _READY
            task.waiting_on = trap
            self._schedule(self.now + trap.duration, _EV_RESUME, task, None, None)
        elif tag == _TRAP_FUTURE:
            if trap._done:
                task.state = _READY
                self._wake_from_future(task, trap)
            else:
                task.state = _WAITING
                task.waiting_on = trap
                trap._waiters.append(task)
        else:  # pragma: no cover - defensive
            raise RuntimeError(
                f"task {task.name} awaited object with bad trap tag {tag!r}")
