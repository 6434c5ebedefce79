"""Awaitable primitives understood by the simulation engine.

Rank programs are ordinary ``async def`` coroutines.  Whenever they ``await``
one of the objects defined here, control returns to the
:class:`~repro.simkernel.engine.Engine`, which decides when (in *virtual*
time) the coroutine resumes and with what value.  Only two primitives exist:

* :class:`Sleep` — advance this task's clock by a fixed amount of virtual
  time (used by the machine model to charge compute / I/O costs).
* :class:`SimFuture` — a one-shot synchronisation cell.  Every higher-level
  operation (message arrival, collective completion, task join) is built
  from futures by the MPI layer.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

#: trap type tags — the engine's hot loop dispatches on these class
#: attributes instead of an ``isinstance`` chain; subclasses inherit them
_TRAP_SLEEP = 1
_TRAP_FUTURE = 2


class Sleep:
    """Awaitable that suspends the current task for ``duration`` virtual seconds."""

    __slots__ = ("duration",)

    _trap_tag = _TRAP_SLEEP

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError(f"negative sleep duration: {duration}")
        self.duration = float(duration)

    def __await__(self):
        yield self
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sleep({self.duration:g})"


class SimFuture:
    """A one-shot result cell resolved at a specific virtual time.

    Unlike :class:`asyncio.Future`, resolution carries a *time*: waiters are
    resumed at ``max(resolution_time, now)``, which is how communication
    latency is modelled — the producer resolves the future "in the future".
    """

    __slots__ = ("engine", "label", "_done", "_result", "_exception", "_time",
                 "_waiters", "_callbacks", "waits_for")

    _trap_tag = _TRAP_FUTURE

    def __init__(self, engine, label: str = ""):
        # NB: ``_result``/``_exception``/``_time`` are written by
        # ``_resolve`` before anything reads them, and ``waits_for`` is an
        # optional annotation higher layers attach (read back with
        # ``getattr(..., None)``) — leaving all four unset keeps future
        # creation, a per-message cost, to the minimum number of stores.
        self.engine = engine
        self.label = label
        self._done = False
        self._waiters: list = []  # Tasks blocked on this future
        self._callbacks: Optional[list] = None  # lazily allocated

    # -- inspection -------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    @property
    def resolution_time(self) -> float:
        if not self._done:
            raise RuntimeError("future not resolved")
        return self._time

    def result(self) -> Any:
        if not self._done:
            raise RuntimeError("future not resolved")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self) -> Optional[BaseException]:
        if not self._done:
            raise RuntimeError("future not resolved")
        return self._exception

    # -- resolution -------------------------------------------------------
    def set_result(self, value: Any = None, at: Optional[float] = None) -> None:
        self._resolve(value, None, at)

    def set_exception(self, exc: BaseException, at: Optional[float] = None) -> None:
        self._resolve(None, exc, at)

    def _resolve(self, value: Any, exc: Optional[BaseException], at: Optional[float]) -> None:
        if self._done:
            raise RuntimeError(f"future {self.label!r} already resolved")
        self._done = True
        self._result = value
        self._exception = exc
        self._time = self.engine.now if at is None else max(at, self.engine.now)
        waiters = self._waiters
        if waiters:
            self._waiters = []
            wake = self.engine._wake_from_future
            for task in waiters:
                wake(task, self)
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            for cb in callbacks:
                cb(self)

    def take_waiters(self, value: Any, at: Optional[float] = None) -> list:
        """Mark resolved (like ``set_result``) but *return* the parked waiter
        tasks instead of scheduling one wake-up each.

        This is the engine's batched-resume entry point
        (:meth:`~repro.simkernel.engine.Engine.schedule_futures_batch` flips
        the returned tasks to READY and issues a single resume event for the
        lot).  Only bare rendezvous futures qualify: done-callbacks would
        observe a different scheduling order, so their presence is an error.
        """
        if self._done:
            raise RuntimeError(f"future {self.label!r} already resolved")
        if self._callbacks:
            raise RuntimeError(
                f"future {self.label!r} has done-callbacks; batched "
                "resolution would reorder them relative to the wake-ups")
        self._done = True
        self._result = value
        self._exception = None
        self._time = self.engine.now if at is None else max(at, self.engine.now)
        waiters = self._waiters
        self._waiters = []
        return waiters

    def recycle(self) -> None:
        """Reset to pristine-unresolved so the cell can be reused.

        Only safe once every consumer has taken its result — collective
        rounds track a read countdown for exactly this purpose.
        """
        self._done = False
        self._result = self._exception = None
        self._waiters = []
        self._callbacks = None

    def add_done_callback(self, cb: Callable[["SimFuture"], None]) -> None:
        """Run ``cb(self)`` when resolved (immediately if already done)."""
        if self._done:
            cb(self)
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)

    def discard_waiter(self, task) -> None:
        """Forget a blocked task (used when the task is killed)."""
        try:
            self._waiters.remove(task)
        except ValueError:
            pass

    def __await__(self):
        result = yield self
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else f"pending({len(self._waiters)} waiters)"
        return f"SimFuture({self.label!r}, {state})"
