"""Intercommunicators: the parent/child bridge created by ``spawn_multiple``.

The reconstruction protocol (Figs. 3 and 5) uses exactly three operations on
the intercommunicator: ``OMPI_Comm_agree`` for synchronisation,
``MPI_Intercomm_merge`` to form the ordered intracommunicator, and error
handlers.  A bridge is therefore a communicator over both groups, parents
first: one :class:`~repro.mpi.comm.CommState` with its board, round table,
death and revoke paths, ack and error-handler tables.  What it adds is the
split into a local and a remote group, agreement over the local group and
the merge over the union.
"""

from __future__ import annotations

from typing import Awaitable, List, Sequence

from .collectives import SHARED, fixed_cost, finish_agree
from .comm import BaseHandle, CommHandle, CommState
from .errors import UNDEFINED, CommInvalidError, RankError
from .process import Proc


class IntercommState(CommState):
    """A bridge between two disjoint groups: a communicator over
    ``group_a + group_b`` whose first ``n_a`` members are group a (the
    parents).  Ranks in its tables (a death's failed ranks, the board's
    slots) index that union."""

    def __init__(self, universe, group_a: Sequence[Proc],
                 group_b: Sequence[Proc], name: str = ""):
        super().__init__(universe, list(group_a) + list(group_b), name=name)
        self.n_a = len(group_a)

    @property
    def group_a(self) -> List[Proc]:
        return self.procs[:self.n_a]

    @property
    def group_b(self) -> List[Proc]:
        return self.procs[self.n_a:]


class IntercommHandle(BaseHandle):
    """One rank's view of a bridge: ``rank`` is its rank in its own (local)
    group, and the other group is the remote one, as in real MPI.  Beside
    the local operations every handle has, it offers only ``agree`` over
    the local group and ``merge`` over the union."""

    def __init__(self, state: IntercommState, proc: Proc):
        slot = state.rank_of(proc)
        if slot == UNDEFINED:
            raise CommInvalidError(f"{proc.name} is not a member of {state.name}")
        self._slot = slot
        self._side = "a" if slot < state.n_a else "b"
        a, b = state.group_a, state.group_b
        self.local_group, self.remote_group = (a, b) if self._side == "a" \
            else (b, a)
        super().__init__(state, proc, slot if self._side == "a"
                         else slot - state.n_a)

    @property
    def local_size(self) -> int:
        return len(self.local_group)

    @property
    def remote_size(self) -> int:
        return len(self.remote_group)

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
            "agree", int(flag), channel=f"agree-{self._side}",
            rule=(fixed_cost(cost), finish_agree), members=group,
            slot=self.rank)

    async def merge(self, high: bool) -> CommHandle:
        """``MPI_Intercomm_merge``: form an intracommunicator over both
        groups; the group(s) passing ``high=True`` get the upper ranks
        (Fig. 2's merge step)."""
        state = self.state
        n_a = state.n_a

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

        cost = self._machine.ulfm.merge(state.size)
        new_state = await self._collective(
            "merge", bool(high), rule=(fixed_cost(cost), finish),
            members=state.procs, slot=self._slot)
        return CommHandle(new_state, self.proc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IntercommHandle({self.state.name!r}, rank={self.rank}, "
                f"local={self.local_size}, remote={self.remote_size})")
