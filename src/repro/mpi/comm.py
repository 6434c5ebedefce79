"""Intracommunicators: point-to-point, collectives, split and the ULFM surface.

A :class:`CommState` is the shared, engine-side record of one communicator
(membership, mailbox, open collectives, revocation flag).  Each rank holds a
:class:`CommHandle` — its private view with a rank, an error handler and the
async operation API.  This mirrors real MPI, where a communicator is a
distributed object and each process holds a local handle.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import (Any, Awaitable, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from ..simkernel.traps import Sleep
from .collectives import (FAST_OPS, OP_RULES, PER_SLOT, SHARED, RoundTable,
                          RvKind, SegmentRound, finish_agree, fixed_cost)
from .datatypes import clone_payload, freeze_payload, payload_nbytes
from .errors import (ANY_SOURCE, ANY_TAG, UNDEFINED, CommInvalidError,
                     MPIError, ProcFailedError, RankError, RevokedError)
from .group import Group
from .matching import MessageBoard
from .process import Proc

_comm_ids = itertools.count()


@dataclass
class Status:
    """Reception status: source rank and tag of the matched message."""
    source: int
    tag: int


class Request:
    """Handle for a non-blocking operation; ``await req.wait()`` completes it."""

    def __init__(self, future, transform=None):
        self._future = future
        self._transform = transform

    async def wait(self):
        value = await self._future
        return self._transform(value) if self._transform else value

    @property
    def done(self) -> bool:
        return self._future.done


async def waitall(requests: Sequence["Request"]) -> List[Any]:
    """``MPI_Waitall``: complete every request, in order."""
    return [await r.wait() for r in requests]


# reduction operators -------------------------------------------------------
def SUM(a, b):
    return a + b


def PROD(a, b):
    return a * b


def MAX(a, b):
    import numpy as np
    return np.maximum(a, b) if hasattr(a, "shape") or hasattr(b, "shape") else max(a, b)


def MIN(a, b):
    import numpy as np
    return np.minimum(a, b) if hasattr(a, "shape") or hasattr(b, "shape") else min(a, b)


def LAND(a, b):
    return bool(a) and bool(b)


def BAND(a, b):
    return a & b


# reductions substitute the C-level operator for the ops whose builtin is
# semantically identical on every payload type (MIN/MAX/LAND branch on the
# operand type, so they fold through the Python functions)
FAST_OPS.update({SUM: operator.add, PROD: operator.mul, BAND: operator.and_})


class CommState:
    """Shared state of one intracommunicator."""

    def __init__(self, universe, procs: Sequence[Proc], name: str = ""):
        self.cid = next(_comm_ids)
        self.universe = universe
        self.procs: List[Proc] = list(procs)
        self.name = name or f"comm{self.cid}"
        self.group = Group(self.procs)
        self.revoked = False
        engine = universe.engine
        detect = universe.machine.failure_detection_latency
        self.board = MessageBoard(engine, detect)
        self.rounds = RoundTable(self, len(self.procs))
        #: oldest open solve segment; standing decision against opening one
        self.segment: Optional[SegmentRound] = None
        self.per_message = False
        #: what the group computes once for all its members (the simulated
        #: processes share one address space): a grid's initial field
        self.shared: Dict[Any, Any] = {}
        #: per-proc acknowledged failure snapshots (failure_ack)
        self.acked: Dict[int, tuple] = {}
        self.errhandlers: Dict[int, Callable] = {}
        self._rank_cache = {p.uid: i for i, p in enumerate(self.procs)}
        #: cached failed-rank snapshot, maintained by on_proc_death so the
        #: per-receive dead-source check is O(1) instead of a membership
        #: scan over every member
        self._dead_ranks = frozenset(
            i for i, p in enumerate(self.procs) if p.dead)
        universe.comm_count.value += 1
        for p in self.procs:
            p.comm_states.add(self)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.procs)

    def rank_of(self, proc: Proc) -> int:
        return self._rank_cache.get(proc.uid, UNDEFINED)

    def dead_ranks(self) -> frozenset:
        return self._dead_ranks

    def n_failed(self) -> int:
        return len(self._dead_ranks)

    def handle(self, proc: Proc) -> "CommHandle":
        return CommHandle(self, proc)

    def on_proc_death(self, proc: Proc, now: float) -> None:
        """Called by the universe when a member dies."""
        rank = self.rank_of(proc)
        self._dead_ranks = self._dead_ranks | {rank}
        self.board.drop_waiters_of(rank)
        self.board.on_rank_death(rank, now)
        self.rounds.on_death(proc, now)
        if self.segment is not None:
            self.segment.on_death(rank, now)

    def readmit(self, rank: int, proc: Proc) -> None:
        """Replace the dead member at ``rank`` with ``proc`` in place.

        The local-membership half of the non-collective repair path: after a
        sub-grid rebuilds itself, each surviving member re-admits the
        replacement processes into the *enclosing* communicators the dead
        processes belonged to, without any collective over those
        communicators.  Idempotent — every survivor of the repaired grid
        performs the same swap.

        Open collective rounds see the swap too, so a fault-tolerant
        operation already in progress (e.g. a survivor-kind ``agree`` that
        unaffected ranks have entered) starts waiting for the replacement
        instead of skipping the dead member, and the replacement inherits
        the dead member's per-channel collective sequence numbers (see
        :meth:`RoundTable.on_readmit`).

        Callers must guarantee no in-flight point-to-point traffic still
        addresses the dead member on this communicator (the non-collective
        protocol re-admits before any post-failure operation is posted).
        """
        old = self.procs[rank]
        if old is proc:
            return                      # already re-admitted by another path
        if not old.dead:
            raise RankError(
                f"rank {rank} of {self.name} is alive; cannot re-admit over it")
        if proc.dead:
            raise RankError(
                f"cannot re-admit dead process {proc.name} into {self.name}")
        self.procs[rank] = proc
        self._rank_cache.pop(old.uid, None)
        self._rank_cache[proc.uid] = rank
        self._dead_ranks = self._dead_ranks - {rank}
        self.group = Group(self.procs)
        self.rounds.on_readmit(old, proc)
        # open segments are doomed and the replacement was never part of them
        self.segment, self.per_message = None, True
        old.comm_states.discard(self)
        proc.comm_states.add(self)

    def do_revoke(self, now: float) -> None:
        if self.revoked:
            return
        self.revoked = True
        self.universe.trace(self.name, "revoked", comm=self.name)
        self.board.revoke_all(now)
        exc = RevokedError(f"{self.name} revoked")
        self.rounds.on_revoke(exc, now)
        if self.segment is not None:
            self.segment.fail(exc, now + self.rounds.detect)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = " revoked" if self.revoked else ""
        return f"CommState({self.name!r}, size={self.size}{flags})"


class BaseHandle:
    """What every communicator handle, intra or bridge, shares: the
    ``LOCAL`` operations of ``OP_RULES`` (revoke, failure_ack /
    failure_get_acked, set_errhandler, free), raising through the rank's
    error handler, and joining a collective round."""

    def __init__(self, state: CommState, proc: Proc, rank: int):
        self.state = state
        self.proc = proc
        self.rank = rank
        # hot-path caches: engine/machine are immutable for the life of
        # the universe, so the per-operation attribute hops are avoidable
        self._engine = state.universe.engine
        self._machine = state.universe.machine
        self._uni = state.universe

    def set_errhandler(self, handler: Callable[["CommHandle", MPIError], None]) -> None:
        """Install an error handler called before any MPIError is raised
        (the simulator analogue of ``MPI_Comm_set_errhandler``)."""
        self.state.errhandlers[self.proc.uid] = handler

    def _raise(self, exc: MPIError):
        exc.comm = self
        handler = self.state.errhandlers.get(self.proc.uid)
        if handler is not None:
            handler(self, exc)
        raise exc

    def revoke(self) -> None:
        """``OMPI_Comm_revoke``: locally returning; propagates asynchronously
        and fails every pending/future operation on this communicator."""
        state = self.state
        engine = self._engine
        state.universe.trace(self.proc.name, "revoke", comm=state.name,
                             rank=self.rank)
        delay = self._machine.ulfm.revoke(state.size)
        engine.call_at(engine.now + delay, state.do_revoke, engine.now + delay)

    def failure_ack(self) -> None:
        """``OMPI_Comm_failure_ack``: snapshot currently-known failures."""
        dead = tuple(p for p in self.state.procs if p.dead)
        self.state.acked[self.proc.uid] = dead

    def failure_get_acked(self) -> Group:
        """``OMPI_Comm_failure_get_acked``: the acknowledged failed group."""
        return Group(self.state.acked.get(self.proc.uid, ()))

    def free(self) -> None:
        """``MPI_Comm_free`` — bookkeeping only in the simulator."""
        self.state.errhandlers.pop(self.proc.uid, None)

    async def _collective(self, op: str, value: Any, nbytes: int = 0, *,
                          channel: str = "coll", rule=None, arg: Any = None,
                          root: int = 0, members: Optional[List[Proc]] = None,
                          slot: int = 0):
        """Join this call's round (see :mod:`repro.mpi.collectives`) and
        return this rank's result; ``OP_RULES[op]`` says whether a revoke
        refuses it.  The round spans the whole communicator, or
        ``members`` with this rank as its ``slot``-th member.  ``rule`` is
        the ``(cost rule, finish rule)`` pair of an operation outside the
        seven hot collectives of ``HOT_OPS``.  The public operations return
        this coroutine itself, so a collective call costs one coroutine
        frame."""
        state = self.state
        if state.revoked and OP_RULES[op] is RvKind.NORMAL:
            self._raise(RevokedError(f"{state.name} is revoked"))
        uni = self._uni
        if uni.tracer is not None:
            uni.trace(self.proc.name, "coll", op=op, comm=state.name,
                      rank=self.rank)
        if members is None:
            members, slot = state.procs, self.rank
        fut = state.rounds.join(op, self.proc, slot, value, nbytes, members,
                                channel, rule, arg, root)
        try:
            rnd = await fut
        except MPIError as exc:
            self._raise(exc)
        return rnd.take(slot)


class CommHandle(BaseHandle):
    """One rank's view of (and API to) a communicator."""

    def __init__(self, state: CommState, proc: Proc):
        rank = state.rank_of(proc)
        if rank == UNDEFINED:
            raise CommInvalidError(f"{proc.name} is not a member of {state.name}")
        super().__init__(state, proc, rank)
        self._board = state.board

    # -- basics ------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.state.size

    @property
    def group(self) -> Group:
        return self.state.group

    @property
    def name(self) -> str:
        return self.state.name

    @property
    def universe(self):
        return self.state.universe

    def _check_usable(self):
        if self.state.revoked:
            self._raise(RevokedError(f"{self.state.name} is revoked"))

    def _check_rank(self, rank: int):
        if not (0 <= rank < self.state.size):
            raise RankError(f"rank {rank} out of range for {self.state.name}")

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    async def send(self, obj: Any, dest: int, tag: int = 0, *,
                   copy: bool = True) -> None:
        """Buffered standard-mode send (completes once injected).

        ``copy=False`` transfers ownership of the payload instead of
        cloning it: the caller promises not to mutate the buffer after the
        call, and the receiver gets a read-only view (see
        :func:`~repro.mpi.datatypes.freeze_payload`).
        """
        state = self.state
        if state.revoked:
            self._raise(RevokedError(f"{state.name} is revoked"))
        procs = state.procs
        if not 0 <= dest < len(procs):
            raise RankError(f"rank {dest} out of range for {state.name}")
        machine = self._machine
        nbytes = payload_nbytes(obj)
        cost = machine.p2p_cost(nbytes)
        target = procs[dest]
        if target.dead:
            if machine.failure_detection_latency:
                await Sleep(machine.failure_detection_latency)
            self._raise(ProcFailedError(
                f"send to dead rank {dest}", failed_ranks=(dest,)))
        if cost:
            await Sleep(cost)
        if state.revoked:
            self._raise(RevokedError(f"{state.name} revoked during send"))
        uni = state.universe
        uni.msg_count.value += 1
        uni.byte_count.value += nbytes
        if uni.tracer is not None:
            uni.trace(self.proc.name, "send", comm=state.name,
                      src=self.rank, dst=dest, tag=tag)
        payload = clone_payload(obj) if copy else freeze_payload(obj)
        self._board.post(self.rank, dest, tag, payload, self._engine.now)

    async def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                   *, return_status: bool = False):
        """Blocking receive; raises ProcFailedError if the source is dead."""
        state = self.state
        if state.revoked:
            self._raise(RevokedError(f"{state.name} is revoked"))
        if source != ANY_SOURCE and not 0 <= source < len(state.procs):
            raise RankError(f"rank {source} out of range for {state.name}")
        fut = self._engine.create_future()
        self._board.register_recv(self.rank, source, tag, fut,
                                  state._dead_ranks)
        try:
            msg = await fut
        except MPIError as exc:
            self._raise(exc)
        if state.universe.tracer is not None:
            self._trace_recv(msg, source, tag)
        if return_status:
            return msg.payload, Status(msg.src, msg.tag)
        return msg.payload

    def _trace_recv(self, msg, source: int, tag: int) -> None:
        self.state.universe.trace(
            self.proc.name, "recv", comm=self.state.name, src=msg.src,
            dst=self.rank, tag=msg.tag, anysrc=source == ANY_SOURCE,
            anytag=tag == ANY_TAG)

    def isend(self, obj: Any, dest: int, tag: int = 0, *,
              copy: bool = True) -> Request:
        """Non-blocking send: posts the message after the injection cost.

        ``copy=False`` is the ownership-transfer fast path: the payload is
        not cloned; the caller must not mutate it after this call (the
        halo-exchange paths pass freshly ``.copy()``-ed boundary rows).
        """
        self._check_usable()
        self._check_rank(dest)
        state = self.state
        machine = self._machine
        engine = self._engine
        fut = engine.create_future()
        target = state.procs[dest]
        if target.dead:
            fut.set_exception(
                ProcFailedError(f"send to dead rank {dest}", failed_ranks=(dest,)),
                at=engine.now + machine.failure_detection_latency)
            return Request(fut)
        nbytes = payload_nbytes(obj)
        cost = machine.p2p_cost(nbytes)
        payload = clone_payload(obj) if copy else freeze_payload(obj)
        uni = state.universe
        uni.msg_count.value += 1
        uni.byte_count.value += nbytes
        if uni.tracer is not None:
            uni.trace(self.proc.name, "send", comm=state.name,
                      src=self.rank, dst=dest, tag=tag)
        arrival = engine.now + cost
        board = self._board
        rank = self.rank

        def _post():
            if not state.revoked:
                board.post(rank, dest, tag, payload, arrival)
            if not fut.done:
                fut.set_result(None, at=arrival)

        engine.call_at(arrival, _post)
        return Request(fut)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        self._check_usable()
        state = self.state
        fut = self._engine.create_future()
        self._board.register_recv(self.rank, source, tag, fut,
                                  state._dead_ranks)

        def _complete(msg):
            if state.universe.tracer is not None:
                self._trace_recv(msg, source, tag)
            return msg.payload

        return Request(fut, transform=_complete)

    async def exchange(self, sends: Sequence[Tuple[int, int, Any]],
                       recvs: Sequence[Tuple[int, int]], *,
                       copy: bool = True) -> List[Any]:
        """Neighbour exchange, the solvers' halo idiom: ``isend`` each
        ``(dest, tag, payload)``, receive each ``(source, tag)`` in order,
        then wait for the sends."""
        reqs = [self.isend(obj, dest, tag, copy=copy)
                for dest, tag, obj in sends]
        out = [await self.recv(source, tag) for source, tag in recvs]
        for r in reqs:
            await r.wait()
        return out

    async def ring_segment(self, n: int, nbytes: int, compute: float,
                           value: Any, advance: Callable):
        """Co-simulate ``n`` halo-exchange steps of this whole group: one
        rendezvous (:class:`~repro.mpi.collectives.SegmentRound`) instead of
        ``n`` calls of :meth:`exchange` + ``ctx.compute`` per rank.

        ``advance(values, n)`` steps the group (or an arc of it) and every
        rank gets its entry of the result (never None) at the clock that
        loop would have reached.  Returns None when the group must run the
        loop instead: a tracer, a revoked communicator, a dead member or a
        pair (docs/performance.md).  The first arriver decides for the
        group, for the life of the communicator (a repair replaces it or, in
        place, decides the same), so a kill that fires or is scheduled
        between two arrivals cannot split the group across the two paths.
        A member with a kill scheduled (``Universe.doomed``) makes the
        segment wait for its decision (:class:`SegmentRound`); falling back
        is the same standing decision.  A kill due by now, or one pending
        while a member is still in an earlier segment, takes it at once.
        """
        state, rank = self.state, self.rank
        seg, last = state.segment, None
        while seg is not None and seg.times[rank] is not None:
            seg, last = seg.next, seg   # joined that one, then ran ahead
        if seg is None:
            if not state.per_message:
                state.per_message = bool(
                    state.revoked or state._dead_ranks
                    or len(state.procs) == 2 or self._uni.tracer is not None)
            if state.per_message:
                return None
            seg = SegmentRound(state, n, nbytes, advance)
            if seg.victims and (last is not None
                                or seg.deadline <= self._engine.now):
                state.per_message = True
                return None
            if last is None:
                state.segment = seg
            else:
                last.next = seg
        try:
            seg = await seg.join(rank, value, compute)
        except MPIError as exc:
            self._raise(exc)
        return None if seg is None else seg.take(rank)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier(self) -> Awaitable[None]:
        """``MPI_Barrier`` — fails with ProcFailedError if any member is dead
        (the paper's failure-detection probe, Fig. 3 line 13)."""
        return self._collective("barrier", None)

    def bcast(self, obj: Any = None, root: int = 0):
        self._check_rank(root)
        value = obj if self.rank == root else None
        return self._collective("bcast", value, payload_nbytes(value),
                                root=root)

    def gather(self, obj: Any, root: int = 0):
        self._check_rank(root)
        return self._collective("gather", obj, payload_nbytes(obj),
                                root=root)

    def allgather(self, obj: Any):
        return self._collective("allgather", obj, payload_nbytes(obj))

    def scatter(self, objs: Optional[Sequence] = None, root: int = 0):
        self._check_rank(root)
        value = objs if self.rank == root else None
        return self._collective("scatter", value, payload_nbytes(value),
                                root=root)

    def reduce(self, obj: Any, op: Callable = SUM, root: int = 0):
        self._check_rank(root)
        return self._collective("reduce", obj, payload_nbytes(obj),
                                arg=op, root=root)

    def allreduce(self, obj: Any, op: Callable = SUM):
        return self._collective("allreduce", obj, payload_nbytes(obj),
                                arg=op)

    # ------------------------------------------------------------------
    # communicator construction
    # ------------------------------------------------------------------
    async def split(self, color: Optional[int], key: int = 0) -> Optional["CommHandle"]:
        """``MPI_Comm_split``: the paper uses this with chosen keys to restore
        the original rank order after recovery (Fig. 3 l.24, Fig. 5 l.25)."""
        state = self.state

        def finish(rnd):
            by_color: Dict[int, list] = defaultdict(list)
            for i, (c, k) in enumerate(rnd.values):
                if c is not None and c != UNDEFINED:
                    by_color[c].append((k, i))
            out: List[Any] = [None] * len(rnd.values)
            for c, entries in sorted(by_color.items()):
                entries.sort()
                new_state = CommState(state.universe,
                                      [state.procs[i] for _k, i in entries],
                                      name=f"{state.name}.split{c}")
                for _k, i in entries:
                    out[i] = new_state
            return PER_SLOT, out

        cost = self._machine.collective_cost(state.size, 16)
        new_state = await self._collective(
            "split", (color, key), rule=(fixed_cost(cost), finish))
        if new_state is None:
            return None
        return CommHandle(new_state, self.proc)

    async def dup(self) -> "CommHandle":
        return await self.split(0, self.rank)

    # ------------------------------------------------------------------
    # dynamic processes
    # ------------------------------------------------------------------
    async def spawn_multiple(self, count: int, entry, argv=(),
                             host_names: Optional[Sequence[str]] = None,
                             root: int = 0):
        """``MPI_Comm_spawn_multiple``: launch ``count`` new processes, each
        optionally pinned to a named host, returning the parent side of the
        new intercommunicator.  Collective over this communicator.

        The virtual-time cost follows the calibrated beta-ULFM curve
        (Table I): it grows steeply with the total core count.
        """
        from .intercomm import IntercommHandle  # local import to avoid cycle
        state = self.state
        universe = state.universe
        n_cores = state.size + count
        cost = self._machine.ulfm.spawn(n_cores, count)

        def finish(rnd):
            # children begin at the round's completion time
            return SHARED, universe.create_spawned_job(
                state, count, entry, argv, host_names,
                start_at=universe.engine.now + cost)

        inter_state = await self._collective(
            "spawn_multiple", (count, tuple(host_names or ())),
            rule=(fixed_cost(cost), finish))
        return IntercommHandle(inter_state, self.proc)

    # ------------------------------------------------------------------
    # ULFM extensions
    # ------------------------------------------------------------------
    async def shrink(self) -> "CommHandle":
        """``OMPI_Comm_shrink``: fault-tolerant; returns a new communicator
        containing the survivors in their original relative order."""
        state = self.state
        universe = state.universe
        n_failed = state.n_failed()
        if n_failed == 0:
            # failure-free shrink is just a communicator duplication: price
            # it like a split rather than charging the 1-failure ULFM curve
            cost = self._machine.collective_cost(state.size, 16)
        else:
            cost = self._machine.ulfm.shrink(state.size, n_failed)

        def finish(rnd):
            return SHARED, CommState(universe,
                                     [p for p in state.procs if p.alive],
                                     name=f"{state.name}.shrunk")

        new_state = await self._collective(
            "shrink", None, channel="shrink", rule=(fixed_cost(cost), finish))
        return CommHandle(new_state, self.proc)

    def agree(self, flag: int = 1) -> Awaitable[int]:
        """``OMPI_Comm_agree``: fault-tolerant agreement among survivors;
        returns the bitwise AND of the contributed flags."""
        state = self.state
        n_failed = state.n_failed()
        if n_failed == 0:
            # failure-free agreement: a handful of ordinary collective rounds
            cost = 4.0 * self._machine.collective_cost(state.size, 8)
        else:
            cost = self._machine.ulfm.agree(state.size, n_failed)
        return self._collective(
            "agree", int(flag), channel="agree",
            rule=(fixed_cost(cost), finish_agree))

    async def readmit(self, rank: int, proc: Proc) -> "CommHandle":
        """Re-admit a repaired process into this communicator (local op).

        The non-collective repair path: the sub-grid has already rebuilt
        itself, and each of its survivors patches the replacement into the
        enclosing communicator's membership.  Charges the (small, log-tree)
        re-admission notification cost and returns a handle rebound to the
        updated state — for the caller this is ``self`` with the membership
        fixed, since the swap happens in place.
        """
        self._check_rank(rank)
        state = self.state
        cost = self._machine.ulfm.readmit(state.size)
        if cost:
            await Sleep(cost)
        state.readmit(rank, proc)
        state.universe.trace(self.proc.name, "readmit", comm=state.name,
                             rank=rank, proc=proc.name)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CommHandle({self.state.name!r}, rank={self.rank}/{self.size})"
