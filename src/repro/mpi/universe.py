"""The simulated MPI universe: job launch, process placement, fault injection.

``Universe`` plays the role of ``mpirun`` plus the runtime: it owns the
engine, the machine model and the hostfile, launches jobs (creating one
coroutine task per rank), services ``spawn_multiple``, and injects fail-stop
process failures (the analogue of the paper's
``kill(getpid(), SIGKILL)`` failure generator).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..machine import Hostfile, MachineSpec
from ..machine.presets import OPL
from ..obs.registry import Counter, MetricsRegistry
from ..obs.spans import OpenSpan, SpanRecorder
from ..simkernel import Engine, Sleep
from .comm import CommHandle, CommState
from .intercomm import IntercommHandle, IntercommState
from .process import Proc
from .stats import CommStats

_job_ids = itertools.count()


class RankContext:
    """Everything a rank program gets: its world communicator, identity,
    the parent intercommunicator (for spawned processes), virtual-time
    helpers and the machine model."""

    def __init__(self, universe: "Universe", proc: Proc, world_state: CommState,
                 argv: tuple, parent_state: Optional[IntercommState] = None):
        self.universe = universe
        self.proc = proc
        self._world_state = world_state
        self.argv = tuple(argv)
        self._parent_state = parent_state
        self.comm: CommHandle = CommHandle(world_state, proc)

    # -- identity ------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def machine(self) -> MachineSpec:
        return self.universe.machine

    @property
    def engine(self) -> Engine:
        return self.universe.engine

    def get_parent(self) -> Optional[IntercommHandle]:
        """``MPI_Comm_get_parent``: the intercommunicator to the spawning
        job, or None for processes started by the initial launch."""
        if self._parent_state is None:
            return None
        return IntercommHandle(self._parent_state, self.proc)

    def set_parent_null(self) -> None:
        """Convert this (spawned) process into an ordinary parent — the
        paper's Fig. 3 l.32 assignment of ``MPI_COMM_NULL`` to the parent
        communicator after the child has rejoined."""
        self._parent_state = None

    def wtime(self) -> float:
        """``MPI_Wtime`` — current virtual time."""
        return self.universe.engine.now

    def span(self, phase: str, **labels):
        """Open a recovery-phase span for this rank (context manager).

        Spans accumulate in ``universe.spans`` per actor and label (e.g.
        ``technique``, ``gid``); see :mod:`repro.obs.spans`.
        """
        return OpenSpan(self.universe.spans, self.proc.name, phase, labels)

    def spent(self) -> Dict[str, float]:
        """This rank's closed-span seconds per phase (a copy) — the clock
        the Table I / Fig. 8 repair times are read from."""
        return dict(self.universe.spans.totals.get(self.proc.name, {}))

    # -- virtual costs ---------------------------------------------------
    def compute_seconds(self, seconds: float = 0.0, *,
                        flops: float = 0.0) -> float:
        """The virtual seconds :meth:`compute` charges for this work."""
        return seconds + (self.machine.compute_cost(flops) if flops else 0.0)

    async def compute(self, seconds: float = 0.0, *, flops: float = 0.0):
        """Charge computation to the virtual clock."""
        total = self.compute_seconds(seconds, flops=flops)
        if total > 0:
            await Sleep(total)

    async def disk_write(self, nbytes: int):
        """Charge one checkpoint-style disk write (latency T_I/O + stream)."""
        cost = self.machine.disk_write_cost(nbytes)
        if cost > 0:
            await Sleep(cost)
        return cost

    async def disk_read(self, nbytes: int):
        cost = self.machine.disk_read_cost(nbytes)
        if cost > 0:
            await Sleep(cost)
        return cost


class Job:
    """A set of processes launched together (an ``mpirun`` invocation or one
    ``spawn_multiple`` call)."""

    def __init__(self, name: str, procs: List[Proc], world_state: CommState,
                 entry: Callable, argv: tuple):
        self.name = name
        self.procs = procs
        self.world_state = world_state
        self.entry = entry
        self.argv = argv
        self.contexts: List[RankContext] = []

    def results(self) -> List[Any]:
        """Per-rank coroutine return values (None for dead/unfinished ranks)."""
        return [p.task.result if p.task is not None else None for p in self.procs]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Job({self.name!r}, n={len(self.procs)})"


class Universe:
    """Top-level simulation container."""

    def __init__(self, machine: MachineSpec = OPL, *,
                 hostfile: Optional[Hostfile] = None,
                 engine: Optional[Engine] = None,
                 batch: Optional[bool] = None):
        self.machine = machine
        self.engine = engine or Engine()
        self.hostfile = hostfile
        self.jobs: List[Job] = []
        self.all_procs: Dict[int, Proc] = {}
        #: recovery-phase spans (closing one also lands in ``tracer`` when
        #: one is attached)
        self.spans = SpanRecorder(self.engine.stamp, self)
        #: the only store of the traffic counters; the code that does the
        #: traffic bumps each handle's ``value`` in place, and ``stats``
        #: is their read-only view
        self.registry = MetricsRegistry()
        counter = self.registry.counter
        self.msg_count = counter("mpi_messages")
        self.byte_count = counter("mpi_bytes_sent")
        self.comm_count = counter("mpi_comms_created")
        self._spawn_count = counter("mpi_spawns")
        self._proc_spawn_count = counter("mpi_procs_spawned")
        self._kill_count = counter("mpi_kills")
        #: op -> its ``mpi_collectives`` counter, made when the op first runs
        self.coll_counts: Dict[str, Counter] = {}
        self.stats = CommStats(self.registry)
        #: optional MPI-level event recorder (see repro.mpi.tracing); call
        #: sites check it before building an event
        self.tracer = None
        #: set by ``close``: the run's state is gone
        self.closed = False
        #: processes with a kill scheduled and not yet fired, each with its
        #: earliest kill instant: a solve segment of their group stands only
        #: if it ends before that (``SegmentRound``)
        self.doomed: Dict[Proc, float] = {}
        # ``batch`` selects nothing and is not stored: bench/probes.py (its
        # only caller, frozen by BENCHMARK.json) still passes it.

    def trace(self, actor: str, kind: str, **fields) -> None:
        """Record one event (fields per ``repro.mpi.tracing.KINDS``) when
        a tracer is attached."""
        if self.tracer is not None:
            self.tracer.record(self.engine.now, actor, kind, **fields)

    # ------------------------------------------------------------------
    # launch & spawn
    # ------------------------------------------------------------------
    def _ensure_hostfile(self, n_ranks: int) -> Hostfile:
        if self.hostfile is None:
            self.hostfile = Hostfile.for_ranks(
                n_ranks, slots=self.machine.cores_per_node)
        return self.hostfile

    def launch(self, n: int, entry: Callable, argv: Sequence = (),
               name: str = "") -> Job:
        """Launch ``n`` ranks running ``entry(ctx)``, placed block-by-slot on
        the hostfile (rank r goes to host r // slots, as the paper assumes)."""
        hostfile = self._ensure_hostfile(n)
        slots, regular = hostfile[0].slots, hostfile.regular_hosts
        name = name or f"job{next(_job_ids)}"
        procs = []
        for r in range(n):
            host = hostfile.host_of_rank(r, slots, regular)
            if host.free_slots <= 0:
                raise RuntimeError(f"no free slot on {host.name} for rank {r}")
            proc = Proc(f"{name}.{r}", host)
            host.occupied += 1
            procs.append(proc)
            self.all_procs[proc.uid] = proc
        world = CommState(self, procs, name=f"{name}.world")
        job = Job(name, procs, world, entry, tuple(argv))
        for proc in procs:
            proc.job = job
            ctx = RankContext(self, proc, world, tuple(argv))
            job.contexts.append(ctx)
            proc.task = self.engine.spawn(entry(ctx), name=proc.name)
            proc.task.meta["proc"] = proc
            proc.task.done_future.add_done_callback(
                lambda _f, p=proc: p.release_slot())
        self.jobs.append(job)
        return job

    def create_spawned_job(self, parent_state: CommState, count: int,
                           entry: Callable, argv: Sequence,
                           host_names: Optional[Sequence[str]],
                           start_at: Optional[float] = None) -> IntercommState:
        """Service one ``spawn_multiple``: place and start ``count`` new
        processes and build the parent/child intercommunicator."""
        hostfile = self._ensure_hostfile(count)
        name = f"spawn{next(_job_ids)}"
        by_name = {h.name: h for h in hostfile}
        procs = []
        for i in range(count):
            # select and reserve one slot at a time so successive first-fit
            # picks see the updated occupancy
            if host_names:
                host = by_name.get(host_names[i])
                if host is None:
                    raise RuntimeError(f"unknown host {host_names[i]!r}")
            else:
                host = hostfile.first_fit()
            if host.free_slots <= 0:
                raise RuntimeError(f"no free slot on {host.name} for spawn")
            proc = Proc(f"{name}.{i}", host)
            proc.spawned = True
            host.occupied += 1
            procs.append(proc)
            self.all_procs[proc.uid] = proc
        child_world = CommState(self, procs, name=f"{name}.world")
        inter = IntercommState(self, parent_state.procs, procs,
                               name=f"{name}.bridge")
        self._spawn_count.value += 1
        self._proc_spawn_count.value += count
        self.trace(name, "spawn", count=count, parent=parent_state.name)
        job = Job(name, procs, child_world, entry, tuple(argv))
        for proc in procs:
            proc.job = job
            ctx = RankContext(self, proc, child_world, tuple(argv),
                              parent_state=inter)
            job.contexts.append(ctx)
            proc.task = self.engine.spawn(entry(ctx), name=proc.name,
                                          at=start_at)
            proc.task.meta["proc"] = proc
            proc.task.done_future.add_done_callback(
                lambda _f, p=proc: p.release_slot())
        self.jobs.append(job)
        return inter

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def kill_proc(self, proc: Proc, at: Optional[float] = None) -> None:
        """Fail-stop kill of one process (SIGKILL analogue)."""
        if at is None or at <= self.engine.now:
            self._do_kill(proc)
        else:
            if not proc.dead:
                self.doomed[proc] = min(at, self.doomed.get(proc, at))
            self.engine.call_at(at, self._do_kill, proc)

    def kill_rank(self, job_or_comm, rank: int, at: Optional[float] = None) -> None:
        state = job_or_comm.world_state if isinstance(job_or_comm, Job) \
            else getattr(job_or_comm, "state", job_or_comm)
        self.kill_proc(state.procs[rank], at=at)

    def _do_kill(self, proc: Proc) -> None:
        self.doomed.pop(proc, None)
        if proc.dead:
            return
        now = self.engine.now
        self._kill_count.value += 1
        self.trace(proc.name, "kill",
                   host=proc.host.name if proc.host else "?")
        proc.dead = True
        proc.death_time = now
        proc.release_slot()
        if proc.task is not None:
            self.engine.kill(proc.task)
        for state in list(proc.comm_states):
            state.on_proc_death(proc, now)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Break a finished run's reference cycles, so refcounting frees
        it as soon as the caller lets go instead of at the next cyclic
        collection: process <-> task (and its coroutine), job <->
        process, communicator <-> round table, engine <-> task and span
        recorder <-> universe.  Read every result first; the universe is
        spent after: ``closed`` is set, and the leak audit refuses it.
        (The engine drops the tracebacks of the exceptions it threw into
        tasks, so no frame outlives its run.)"""
        self.closed = True
        self.engine.close()
        states = set()
        for proc in self.all_procs.values():
            states |= proc.comm_states
            proc.comm_states.clear()
            proc.task = proc.job = None
        for state in states:
            state.rounds.close()
        self.jobs.clear()
        self.spans.tracing = None

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            raise_task_failures: bool = True) -> float:
        return self.engine.run(until=until,
                               raise_task_failures=raise_task_failures)


def run_ranks(n: int, entry: Callable, *, machine: Optional[MachineSpec] = None,
              argv: Sequence = ()) -> List[Any]:
    """Convenience for tests and examples: run ``entry(ctx)`` on ``n`` ranks
    to completion and return the per-rank results."""
    from ..machine.presets import IDEAL
    uni = Universe(machine or IDEAL)
    job = uni.launch(n, entry, argv)
    uni.run()
    return job.results()
