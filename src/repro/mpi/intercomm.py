"""Intercommunicators: the parent/child link created by ``spawn_multiple``.

The reconstruction protocol (Figs. 3 and 5) uses exactly three operations on
the intercommunicator: ``OMPI_Comm_agree`` for synchronisation,
``MPI_Intercomm_merge`` to form the ordered intracommunicator, and error
handlers.  Basic point-to-point across the bridge is provided for
completeness.
"""

from __future__ import annotations

import itertools
from typing import Any, Awaitable, Callable, Dict, List, Sequence

from ..simkernel.traps import Sleep
from .collectives import (OP_RULES, SHARED, RoundTable, RvKind, finish_agree,
                          fixed_cost)
from .comm import CommHandle, CommState
from .datatypes import clone_payload, payload_nbytes
from .errors import (ANY_SOURCE, ANY_TAG, UNDEFINED, CommInvalidError,
                     MPIError, ProcFailedError, RankError, RevokedError)
from .group import Group
from .matching import MessageBoard
from .process import Proc

_inter_ids = itertools.count()


class IntercommState:
    """Shared state of an intercommunicator between two disjoint groups."""

    def __init__(self, universe, group_a: Sequence[Proc], group_b: Sequence[Proc],
                 name: str = ""):
        self.cid = next(_inter_ids)
        self.universe = universe
        self.group_a: List[Proc] = list(group_a)
        self.group_b: List[Proc] = list(group_b)
        self.name = name or f"intercomm{self.cid}"
        self.revoked = False
        engine = universe.engine
        detect = universe.machine.failure_detection_latency
        # board keyed by destination proc uid (ranks are ambiguous across sides)
        self.board = MessageBoard(engine, detect)
        self.rounds = RoundTable(self, len(self.group_a) + len(self.group_b))
        self.errhandlers: Dict[int, Callable] = {}
        self.acked: Dict[int, tuple] = {}
        self._a_uids = {p.uid for p in self.group_a}
        self._b_uids = {p.uid for p in self.group_b}
        universe.stats.comms_created += 1
        for p in self.all_procs:
            p.comm_states.add(self)

    @property
    def all_procs(self) -> List[Proc]:
        return self.group_a + self.group_b

    def side_of(self, proc: Proc) -> str:
        if proc.uid in self._a_uids:
            return "a"
        if proc.uid in self._b_uids:
            return "b"
        raise CommInvalidError(f"{proc.name} not in {self.name}")

    def local_remote(self, proc: Proc):
        return (self.group_a, self.group_b) if self.side_of(proc) == "a" \
            else (self.group_b, self.group_a)

    def rank_of(self, proc: Proc) -> int:
        """Rank within the proc's own (local) group."""
        local, _ = self.local_remote(proc)
        for i, p in enumerate(local):
            if p.uid == proc.uid:
                return i
        return UNDEFINED

    def n_failed(self) -> int:
        return sum(1 for p in self.all_procs if p.dead)

    def on_proc_death(self, proc: Proc, now: float) -> None:
        self.board.drop_waiters_of(proc.uid)
        dead_rank = self.rank_of(proc)
        # fail pending receives on the *other* side naming this rank
        _, other = self.local_remote(proc)
        detect = self.universe.machine.failure_detection_latency
        for q in other:
            self.board.fail_source_waiters(
                q.uid, dead_rank,
                ProcFailedError(f"intercomm peer rank {dead_rank} died",
                                failed_ranks=(dead_rank,)),
                at=now + detect)
        self.rounds.on_death(proc, now)

    def do_revoke(self, now: float) -> None:
        if self.revoked:
            return
        self.revoked = True
        self.universe.trace(self.name, "revoked", comm=self.name)
        self.board.revoke_all(now)
        self.rounds.on_revoke(RevokedError(f"{self.name} revoked"), now)


class IntercommHandle:
    """One rank's view of an intercommunicator.

    ``side`` is "local" from the caller's perspective; remote ranks index the
    other group, as in real MPI.
    """

    def __init__(self, state: IntercommState, proc: Proc, side: str = "auto"):
        self.state = state
        self.proc = proc
        self.local_group, self.remote_group = state.local_remote(proc)
        self.rank = state.rank_of(proc)

    @property
    def local_size(self) -> int:
        return len(self.local_group)

    @property
    def remote_size(self) -> int:
        return len(self.remote_group)

    @property
    def _engine(self):
        return self.state.universe.engine

    @property
    def _machine(self):
        return self.state.universe.machine

    def set_errhandler(self, handler) -> None:
        self.state.errhandlers[self.proc.uid] = handler

    def _raise(self, exc: MPIError):
        exc.comm = self
        handler = self.state.errhandlers.get(self.proc.uid)
        if handler is not None:
            handler(self, exc)
        raise exc

    # ------------------------------------------------------------------
    # point-to-point across the bridge (ranks address the remote group)
    # ------------------------------------------------------------------
    async def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if self.state.revoked:
            self._raise(RevokedError(f"{self.state.name} revoked"))
        if not (0 <= dest < self.remote_size):
            raise RankError(f"remote rank {dest} out of range")
        target = self.remote_group[dest]
        machine = self._machine
        if target.dead:
            if machine.failure_detection_latency:
                await Sleep(machine.failure_detection_latency)
            self._raise(ProcFailedError(f"send to dead remote rank {dest}",
                                        failed_ranks=(dest,)))
        cost = machine.p2p_cost(payload_nbytes(obj))
        if cost:
            await Sleep(cost)
        self.state.universe.stats.record_message(payload_nbytes(obj))
        self.state.universe.trace(
            self.proc.name, "send", comm=self.state.name, src=self.rank,
            dst=dest, tag=tag, inter=True)
        self.state.board.post(self.rank, target.uid, tag,
                              clone_payload(obj), self._engine.now)

    async def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        if self.state.revoked:
            self._raise(RevokedError(f"{self.state.name} revoked"))
        dead = frozenset(i for i, p in enumerate(self.remote_group) if p.dead)
        fut = self._engine.create_future(label=f"i-recv:{self.state.name}")
        fut.waits_for = {"kind": "recv", "state": self.state,
                         "rank": self.rank, "source": source, "tag": tag,
                         "inter": True}
        self.state.board.register_recv(self.proc.uid, source, tag, fut, dead)
        try:
            msg = await fut
        except MPIError as exc:
            self._raise(exc)
        self.state.universe.trace(
            self.proc.name, "recv", comm=self.state.name, src=msg.src,
            dst=self.rank, tag=msg.tag, anysrc=source == ANY_SOURCE,
            anytag=tag == ANY_TAG, inter=True)
        return msg.payload

    # ------------------------------------------------------------------
    # collectives over the union
    # ------------------------------------------------------------------
    async def _collective(self, op: str, value: Any, slot: int,
                          members: List[Proc], channel: str, rule):
        """Join this call's round over ``members`` (the union, or the
        caller's local group) as its ``slot``-th member."""
        if self.state.revoked and OP_RULES[op] is RvKind.NORMAL:
            self._raise(RevokedError(f"{self.state.name} revoked"))
        fut = self.state.rounds.join(op, self.proc, slot, value, 0, members,
                                     channel, rule)
        try:
            rnd = await fut
        except MPIError as exc:
            self._raise(exc)
        return rnd.take(slot)

    def agree(self, flag: int = 1) -> Awaitable[int]:
        """``OMPI_Comm_agree`` on an intercommunicator.

        Agreement is performed over the caller's *local* group.  This is
        the only semantics under which the paper's published call sequence
        is deadlock-free: the parents merge before agreeing (Fig. 5
        l.14-15) while the children agree before merging (Fig. 3 l.21-22),
        so an agreement spanning both groups could never complete.
        """
        group = self.local_group
        n = len(group)
        n_failed = sum(1 for p in group if p.dead)
        if n_failed == 0:
            cost = 4.0 * self._machine.collective_cost(n, 8)
        else:
            cost = self._machine.ulfm.agree(n, n_failed)
        return self._collective(
            "agree", int(flag), self.rank, group,
            f"agree-{self.state.side_of(self.proc)}",
            (fixed_cost(cost), finish_agree))

    async def merge(self, high: bool) -> CommHandle:
        """``MPI_Intercomm_merge``: form an intracommunicator over both
        groups; the group(s) passing ``high=True`` get the upper ranks
        (Fig. 2's merge step)."""
        state = self.state
        n_a = len(state.group_a)
        cost = self._machine.ulfm.merge(n_a + len(state.group_b))

        def finish(rnd):
            a_flags = set(rnd.values[:n_a])
            b_flags = set(rnd.values[n_a:])
            if len(a_flags) > 1 or len(b_flags) > 1 or a_flags == b_flags:
                raise RankError(
                    f"inconsistent high flags in intercomm merge: "
                    f"a={a_flags}, b={b_flags}")
            low, highg = (state.group_a, state.group_b) \
                if a_flags == {False} else (state.group_b, state.group_a)
            return SHARED, CommState(state.universe, low + highg,
                                     name=f"{state.name}.merged")

        slot = self.rank if self.local_group is state.group_a \
            else n_a + self.rank
        new_state = await self._collective(
            "merge", bool(high), slot, state.all_procs, "coll",
            (fixed_cost(cost), finish))
        return CommHandle(new_state, self.proc)

    def revoke(self) -> None:
        state = self.state
        engine = self._engine
        state.universe.trace(self.proc.name, "revoke", comm=state.name,
                             rank=self.rank)
        delay = self._machine.ulfm.revoke(len(state.all_procs))
        engine.call_at(engine.now + delay, state.do_revoke, engine.now + delay)

    def failure_ack(self) -> None:
        """``OMPI_Comm_failure_ack`` over both groups."""
        dead = tuple(p for p in self.state.all_procs if p.dead)
        self.state.acked[self.proc.uid] = dead

    def failure_get_acked(self) -> Group:
        return Group(self.state.acked.get(self.proc.uid, ()))

    def free(self) -> None:
        self.state.errhandlers.pop(self.proc.uid, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IntercommHandle({self.state.name!r}, rank={self.rank}, "
                f"local={self.local_size}, remote={self.remote_size})")
