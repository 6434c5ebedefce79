"""Collective rounds with ULFM failure semantics — the one mechanism.

Every collective call on a communicator is matched by *call order*: the
``k``-th call of an operation on a channel, by each member, joins the same
:class:`Round` (key ``(channel, op, k)``).  Members contribute into a
slot-indexed row and park on the round's single shared future; the arrival
that completes the round runs its finish rule once and wakes everybody
through one batched engine event (``Engine.schedule_futures_batch``) at
``latest_arrival + cost`` — which is how collectives synchronise virtual
clocks.  The first arriver supplies the round's cost and finish rules.

Ordinary collectives share one ordered channel (``"coll"``), matching
MPI's same-order rule.  The ULFM operations (agree, shrink) use their own
channels: their fault-tolerant consensus protocols are independent of the
regular collective stream, which is what makes the paper's differing
parent/child call orders (Fig. 3 l.21-22 vs Fig. 5 l.14-15) legal.

Two failure disciplines exist:

* ``NORMAL`` — ordinary MPI collectives (barrier, bcast, ...): if any member
  is dead when the round opens, or dies while it is open, the round is
  *doomed* and every participant gets the same :class:`ProcFailedError`
  ``detect`` seconds later (the paper's failure-detection barrier relies on
  exactly this).  A doomed round lingers in the table so that members
  arriving afterwards receive the original error, ``detect`` after *their*
  arrival; it is dropped once every member has arrived or died.
* ``SURVIVOR`` — the fault-tolerant ULFM operations (``OMPI_Comm_agree``,
  ``OMPI_Comm_shrink``): dead members are excluded and the round completes
  among the survivors.  A death that leaves every survivor arrived completes
  the round at ``max(latest_arrival + cost, death)`` — no detection latency
  is charged.

Revocation dooms every open ``NORMAL`` round with one shared
``RevokedError``; ``SURVIVOR`` rounds outlive it, as ULFM's agree and
shrink do.  Results are cloned at completion, never shared mutably
across ranks; reductions fold left-to-right in rank order (no pairwise
reassociation, so float sums are reproducible to the bit).
"""

from __future__ import annotations

import enum
import operator
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

from .datatypes import _IMMUTABLE_TYPES, clone_payload
from .errors import ProcFailedError, RankError
from .matching import RingClocks


class RvKind(enum.Enum):
    """An operation's failure rule, once a member is dead or the
    communicator revoked (:data:`OP_RULES`)."""
    NORMAL = "normal"       # rendezvous; doomed by a death or a revoke
    SURVIVOR = "survivor"   # rendezvous among survivors; outlives a revoke
    P2P = "p2p"             # raises on a revoke and on a dead peer
    LOCAL = "local"         # no rendezvous; legal on a revoked communicator


#: every public operation of ``CommHandle`` and ``IntercommHandle``, by
#: failure rule: the one statement of the ULFM contract that the rounds
#: below, the linter, the typestate and collective-matching analyses, the
#: protocol model and the trace checker all read.  ``ring_segment`` is
#: LOCAL: on a revoked communicator it opens no segment and returns None,
#: and its caller falls back to ``exchange``, which raises (a segment
#: already open when the revoke lands fails like a NORMAL round).
OP_RULES: Dict[str, RvKind] = {
    **dict.fromkeys(("barrier", "bcast", "gather", "allgather", "scatter",
                     "reduce", "allreduce", "split", "dup", "merge",
                     "spawn_multiple"), RvKind.NORMAL),
    **dict.fromkeys(("agree", "shrink"), RvKind.SURVIVOR),
    **dict.fromkeys(("send", "recv", "isend", "irecv", "exchange"),
                    RvKind.P2P),
    **dict.fromkeys(("revoke", "free", "failure_ack", "failure_get_acked",
                     "set_errhandler", "readmit", "ring_segment"),
                    RvKind.LOCAL),
}

#: the operations that return a new communicator
CREATES_COMM = frozenset({"split", "dup", "shrink", "merge",
                          "spawn_multiple"})


def ops_with(*rules: RvKind) -> frozenset:
    """The operations whose failure rule is one of ``rules``."""
    return frozenset(op for op, rule in OP_RULES.items() if rule in rules)


#: result shapes a finish rule returns with its payload
SHARED = 0      # every rank reads the payload (immutable, or one new object)
ROOT_ONLY = 1   # the round's root reads the payload; everyone else None
PER_SLOT = 2    # slot i reads ``payload[i]``

#: identity-keyed substitutions of the comm module's reduction lambdas by
#: their C-level equivalents (populated by :mod:`repro.mpi.comm` at import
#: time).  Only ops whose builtin is semantically identical for *every*
#: payload type are listed; user-supplied operators are never touched.
FAST_OPS: Dict[Callable, Callable] = {}


def fold(values: List[Any], op: Callable):
    """Left fold in slot order, skipping ``None`` contributions."""
    op = FAST_OPS.get(op, op)
    acc = None
    for v in values:
        if v is None:
            continue
        acc = v if acc is None else op(acc, v)
    return acc


# ----------------------------------------------------------------------
# cost rules: (machine, members, largest contribution in bytes) -> seconds
# ----------------------------------------------------------------------
def payload_cost(machine, n: int, nbytes: int) -> float:
    return machine.collective_cost(n, nbytes)


def _barrier_cost(machine, n: int, nbytes: int) -> float:
    return machine.barrier_cost(n)


def fixed_cost(seconds: float) -> Callable:
    return lambda machine, n, nbytes: seconds


# ----------------------------------------------------------------------
# finish rules of the seven hot collectives: round -> (shape, payload)
# ----------------------------------------------------------------------
def _per_slot_clones(value: Any, n: int) -> Tuple[int, Any]:
    if type(value) in _IMMUTABLE_TYPES:
        return SHARED, value
    return PER_SLOT, [clone_payload(value) for _ in range(n)]


def _finish_barrier(rnd: "Round"):
    return SHARED, None


def _finish_bcast(rnd: "Round"):
    shape, out = _per_slot_clones(rnd.values[rnd.root], len(rnd.values))
    if shape == PER_SLOT:
        out[rnd.root] = rnd.values[rnd.root]    # root keeps its own object
    return shape, out


def _finish_gather(rnd: "Round"):
    return ROOT_ONLY, list(rnd.values)          # the contributed objects


def _frozen(value: Any) -> bool:
    """Immutable all the way down: an immutable scalar, str, bytes, or a
    tuple of frozen values.  Ranks may share such an object."""
    t = type(value)
    return t in _IMMUTABLE_TYPES or \
        (t is tuple and all(_frozen(v) for v in value))


def _finish_allgather(rnd: "Round"):
    """Every slot gets its own list; only contributions that can change
    are cloned per receiver."""
    ordered = list(rnd.values)
    mutable = [i for i, v in enumerate(ordered) if not _frozen(v)]
    rows = [ordered.copy() for _ in ordered]
    for row in rows:
        for i in mutable:
            row[i] = clone_payload(ordered[i])
    return PER_SLOT, rows


def _finish_scatter(rnd: "Round"):
    items, n = rnd.values[rnd.root], len(rnd.values)
    if items is None or len(items) != n:
        raise RankError(f"scatter root must supply {n} items")
    return PER_SLOT, [clone_payload(item) for item in items]


def _finish_reduce(rnd: "Round"):
    return ROOT_ONLY, fold(rnd.values, rnd.arg)


def _finish_allreduce(rnd: "Round"):
    return _per_slot_clones(fold(rnd.values, rnd.arg), len(rnd.values))


def finish_agree(rnd: "Round"):
    """``OMPI_Comm_agree``: bitwise AND of the survivors' flags."""
    return SHARED, fold(rnd.values, operator.and_)


#: op name -> (cost rule, finish rule).  The other rendezvous operations
#: pass their own pair to :meth:`RoundTable.join`.
HOT_OPS: Dict[str, Tuple[Callable, Callable]] = {
    "barrier": (_barrier_cost, _finish_barrier),
    "bcast": (payload_cost, _finish_bcast),
    "gather": (payload_cost, _finish_gather),
    "allgather": (payload_cost, _finish_allgather),
    "scatter": (payload_cost, _finish_scatter),
    "reduce": (payload_cost, _finish_reduce),
    "allreduce": (payload_cost, _finish_allreduce),
}


class Round:
    """One open (or doomed and lingering) collective round.

    ``members`` is the communicator's own member list, not a copy:
    ``readmit`` swaps a member in place and then tells every round to await
    the replacement.  ``times[slot]`` is the arrival instant of a member
    that arrived and is still alive — the arrival record the deadlock
    explainer and the leak audit read — until it reads its result.
    """

    __slots__ = ("fut", "key", "members", "kind", "cost_rule", "finish",
                 "arg", "root", "values", "times", "n", "need", "max_nbytes",
                 "doom", "shape", "result", "reads", "table")

    def __init__(self, table: "RoundTable"):
        self.table = table
        self.fut = table.engine.create_future()
        self.values: List[Any] = []
        self.times: List[Any] = []
        self.doom = None

    @property
    def op(self) -> str:
        return self.key[1]

    def missing(self) -> List:
        """Live members that have not arrived."""
        return [m for m, t in zip(self.members, self.times)
                if t is None and not m.dead]

    def fail(self, exc: BaseException, at: float) -> None:
        """Doom the round: everyone parked on it gets ``exc`` at ``at``."""
        self.doom = exc
        self.fut.set_exception(exc, at=at)

    def take(self, slot: int):
        """This slot's result; recycles the round once every rank has read
        (a member that dies before it reads counts as read:
        :meth:`RoundTable.on_death`)."""
        self.times[slot] = None
        shape = self.shape
        if shape == SHARED:
            out = self.result
        elif shape == ROOT_ONLY:
            out = self.result if slot == self.root else None
        else:
            out = self.result[slot]
        n = self.reads - 1
        self.reads = n
        if n == 0:
            self.table._recycle(self)
        return out


class RoundTable:
    """The open rounds of one communicator (an intracommunicator or a
    bridge, whose rounds span its union or one of its groups)."""

    __slots__ = ("state", "engine", "machine", "coll_counts", "detect",
                 "open", "unread", "calls", "_pool", "_blank")

    def __init__(self, state, size: int):
        uni = state.universe
        self.state = state
        self.engine = uni.engine
        self.machine = uni.machine
        self.coll_counts = uni.coll_counts
        self.detect = uni.machine.failure_detection_latency
        #: (channel, op, index) -> round
        self.open: Dict[tuple, Round] = {}
        #: settled rounds that a member has yet to read
        self.unread: set = set()
        #: channel -> proc uid -> collective calls made so far
        self.calls: Dict[str, Dict[int, int]] = defaultdict(
            lambda: defaultdict(int))
        self._pool: List[Round] = []
        self._blank: List[Any] = [None] * size

    # ------------------------------------------------------------------
    def join(self, op: str, proc, slot: int, value: Any, nbytes: int,
             members: List, channel: str = "coll", rule=None,
             arg: Any = None, root: int = 0):
        """Contribute ``value`` to this call's round; returns the future to
        await.  It resolves to the round (read the result with
        ``round.take(slot)``) or raises the round's doom.  The round's
        failure rule is ``OP_RULES[op]``."""
        calls = self.calls[channel]
        uid = proc.uid
        idx = calls[uid]
        calls[uid] = idx + 1
        counter = self.coll_counts.get(op)
        if counter is None:
            counter = self.coll_counts[op] = \
                self.state.universe.registry.counter("mpi_collectives", op=op)
        counter.value += 1
        key = (channel, op, idx)
        now = self.engine.now
        rnd = self.open.get(key)
        if rnd is None:
            rnd = self._open_round(key, now, members, rule, arg, root)
        if rnd.doom is not None:
            # original error, one detection latency after *this* arrival
            fut = self.engine.create_future()
            fut.set_exception(rnd.doom, at=now + self.detect)
        else:
            fut = rnd.fut
            rnd.values[slot] = value
            if nbytes > rnd.max_nbytes:
                rnd.max_nbytes = nbytes
        rnd.times[slot] = now
        n = rnd.n = rnd.n + 1
        if n == rnd.need:
            self._settle(rnd, now)
        return fut

    def _open_round(self, key, now, members, rule, arg, root) -> Round:
        pool = self._pool
        rnd = pool.pop() if pool else Round(self)
        n = len(members)
        if len(rnd.values) != n:
            rnd.values = [None] * n
            rnd.times = [None] * n
        rnd.key = key
        rnd.members = members
        rnd.kind = kind = OP_RULES[key[1]]
        rnd.cost_rule, rnd.finish = rule or HOT_OPS[key[1]]
        rnd.arg = arg
        rnd.root = root
        rnd.n = 0
        rnd.need = n
        rnd.max_nbytes = 0
        self.open[key] = rnd
        if self.state.n_failed():
            dead = [m for m in members if m.dead]
            rnd.need = n - len(dead)
            if dead and kind is RvKind.NORMAL:
                rnd.fail(self._proc_failed(rnd, dead), now + self.detect)
        return rnd

    def _proc_failed(self, rnd: Round, dead) -> ProcFailedError:
        ranks = tuple(sorted(self.state.rank_of(p) for p in dead))
        return ProcFailedError(
            f"collective {rnd.op} failed: dead ranks {ranks}",
            failed_ranks=ranks)

    def _settle(self, rnd: Round, latest: float) -> None:
        """Every live member has arrived: finish an open round (cost, finish
        rule, one batched wake-up at ``latest + cost``); a doomed one has
        nobody left to tell and is dropped."""
        del self.open[rnd.key]
        if rnd.doom is not None or rnd.n == 0:
            return
        try:
            cost = rnd.cost_rule(self.machine, len(rnd.members),
                                 rnd.max_nbytes)
            rnd.shape, rnd.result = rnd.finish(rnd)
        except Exception as exc:
            # a malformed collective (e.g. scatter with the wrong list
            # length) fails uniformly on every participant, like MPI
            rnd.fail(exc, self.engine.now)
            return
        rnd.reads = rnd.n
        self.unread.add(rnd)
        self.engine.schedule_futures_batch((rnd.fut,), rnd, latest + cost)

    def close(self) -> None:
        """A finished run's teardown: let go of the communicator (it
        holds this table) and of every round left here (each holds it
        too)."""
        self.open.clear()
        self.unread.clear()
        self._pool.clear()
        self.state = None

    def _recycle(self, rnd: Round) -> None:
        # every reader took its result: the future lets go of the round
        # even when a size change keeps the round out of the pool
        self.unread.discard(rnd)
        rnd.fut.recycle()
        blank = self._blank
        if len(rnd.values) != len(blank):
            return
        rnd.values[:] = blank
        rnd.times[:] = blank
        rnd.result = rnd.arg = rnd.members = None
        self._pool.append(rnd)

    # ------------------------------------------------------------------
    # membership changes (cold paths)
    # ------------------------------------------------------------------
    def on_death(self, proc, now: float) -> None:
        """A member died: NORMAL rounds it belongs to are doomed at
        ``now + detect``; SURVIVOR rounds stop waiting for it.  A settled
        round it had not read yet counts it as read, so the round is
        recycled when its last live reader takes its result."""
        for rnd in list(self.unread):
            try:
                slot = rnd.members.index(proc)
            except ValueError:
                continue
            if rnd.times[slot] is not None:
                rnd.times[slot] = None
                rnd.reads -= 1
                if rnd.reads == 0:
                    self._recycle(rnd)
        for rnd in list(self.open.values()):
            try:
                slot = rnd.members.index(proc)
            except ValueError:
                continue
            rnd.need -= 1
            if rnd.times[slot] is not None:
                # arrived, then died: its contribution no longer counts
                rnd.times[slot] = rnd.values[slot] = None
                rnd.n -= 1
            if rnd.doom is None and rnd.kind is RvKind.NORMAL:
                rnd.fail(self._proc_failed(rnd, [proc]), now + self.detect)
            if rnd.n == rnd.need:
                self._settle(rnd, max(
                    (t for t in rnd.times if t is not None), default=now))

    def on_revoke(self, exc: BaseException, now: float) -> None:
        """Revocation: doom every open NORMAL round with the shared
        exception; agree/shrink rounds run on, as in ULFM."""
        at = now + self.detect
        for rnd in self.open.values():
            if rnd.doom is None and rnd.kind is RvKind.NORMAL:
                rnd.fail(exc, at)

    def on_readmit(self, old, proc) -> None:
        """Dead member ``old`` was replaced in place by ``proc``: the
        replacement inherits its per-channel call counts (staying aligned
        with the survivors' streams) and every round now also waits for it.
        That only ever *adds* a wait requirement, so no completion check is
        needed."""
        for calls in self.calls.values():
            if old.uid in calls:
                calls[proc.uid] = calls.pop(old.uid)
        for rnd in self.open.values():
            rnd.need += 1


class SegmentRound:
    """One process group's rendezvous for a co-simulated solve segment
    (``CommHandle.ring_segment``).  ``CommState.segment`` is the oldest one
    still awaiting a member, ``next`` the one opened after it by a member
    that left this one ahead of the others.

    A ``NORMAL`` round whose members park on one future *each*.  It holds
    every release until it is decided (:meth:`decide`): at the last
    arrival when every member arrives in the first arrival's virtual
    instant, else at the end of that instant (a callback queued then).
    A round decided with every member in and one compute charge -- every
    segment of a healthy group that entered it together -- releases them
    all at one clock, :meth:`RingClocks.uniform`, through one batched
    engine wake-up.  Any other round replays
    its held arrivals, and feeds the later ones, through the
    :class:`~repro.mpi.matching.RingClocks` walk: a member leaves as soon
    as its clock is known.  A member leaves charged its ``2 * n`` halo
    rows and reads its share of the numerics with :meth:`take` when it
    resumes.  Failure follows the ``NORMAL`` discipline above.  A death
    *after* a member was released changes nothing for it: a victim never
    resumes, its peers finish the segment and meet the failure at their
    next operation.

    Members with a kill scheduled (``Universe.doomed``; their ranks are
    ``victims`` until the round is decided) give it a ``deadline``, the
    earliest of their kills.  Such a round stands only when every member
    arrived in the first instant and every victim's ``n``-step clock is
    before the deadline (a victim then made all its sends before it dies,
    so every member's slab and clock are the per-message ones); otherwise
    it falls back: every member resumes with None, and the communicator
    stays per-message."""

    def __init__(self, state, n: int, nbytes: int, advance: Callable):
        self.state = state
        self.n, self.nbytes, self.advance = n, nbytes, advance
        self.need = size = len(state.procs)
        self.clocks = RingClocks(
            size, state.universe.machine.p2p_cost(nbytes), n)
        self.futs, self.times, self.values, self.comps = (
            [None] * size for _ in range(4))
        #: ranks in arrival order, held until the decision
        self.order: List[int] = []
        self.arrived = 0
        self.decided = False
        self.outs = self.doom = self.next = None
        kills = {state.rank_of(p): at
                 for p, at in state.universe.doomed.items()
                 if state in p.comm_states}
        self.victims = list(kills)
        self.deadline = min(kills.values(), default=float("inf"))

    def missing(self) -> List:
        """Live members that have not arrived (the deadlock explainer asks)."""
        return [p for p, t in zip(self.state.procs, self.times)
                if t is None and not p.dead]

    def join(self, rank: int, value: Any, compute: float):
        """Returns the future to await; it resolves to this round, or to
        None when the round fell back to the per-message loop."""
        state, futs = self.state, self.futs
        engine = state.universe.engine
        fut = engine.create_future(f"segment:{state.name}")
        fut.waits_for = {"kind": "coll", "op": "segment", "state": state,
                         "rnd": self}
        now = self.times[rank] = engine.now
        self.arrived += 1
        if self.doom is not None:
            fut.set_exception(self.doom, at=now + state.rounds.detect)
        else:
            futs[rank], self.values[rank] = fut, value
            self.comps[rank] = compute
            if self.decided:        # a replay: this arrival walks on
                self._release(self.clocks.start(rank, now, compute))
            else:
                self.order.append(rank)
                if self.arrived == 1 < len(futs):
                    engine.call_at(now, self.decide)
                elif self.arrived == len(futs) and not self.decide():
                    return fut
            if self.arrived == len(futs):   # every value is in: one advance
                self.outs, self.values = self.advance(self.values, self.n), ()
        if self.arrived == self.need:
            state.segment = self.next
        return fut

    def decide(self) -> bool:
        """Release the held members, or fall back; False if it fell back.
        Every member in (necessarily within the first instant, which this
        decision ends) with one compute charge: one clock and one batched
        wake-up for all.  Else the held arrivals replay through the walk,
        in arrival order."""
        if self.decided or self.doom is not None:
            return True
        self.decided = True
        size, times, comps = len(self.futs), self.times, self.comps
        if self.victims and self.arrived < size:
            return self._fall_back()
        if self.arrived == size and comps.count(comps[0]) == size:
            at = self.clocks.uniform(times[0], comps[0])
            if self.victims and at >= self.deadline:
                return self._fall_back()
            self._sent(size)
            self.state.universe.engine.schedule_futures_batch(
                self.futs, self, at)
            self.futs = [None] * size
        else:
            start = self.clocks.start
            done = [d for r in self.order
                    for d in start(r, times[r], comps[r])]
            if self.victims:
                clocks = dict(done)
                if any(clocks[v] >= self.deadline for v in self.victims):
                    return self._fall_back()
            self._release(done)
        self.victims = ()
        return True

    def _sent(self, members: int) -> None:
        """Count the ``2 * n`` halo rows each of ``members`` sent."""
        if len(self.futs) > 1:
            uni = self.state.universe
            uni.msg_count.value += 2 * self.n * members
            uni.byte_count.value += 2 * self.n * members * self.nbytes

    def _release(self, done: List[Tuple[int, float]]) -> None:
        """Resume each ``(rank, clock)`` of ``done`` at its clock."""
        self._sent(len(done))
        futs = self.futs
        for i, at in done:
            futs[i].set_result(self, at=at)
            futs[i] = None

    def _fall_back(self) -> bool:
        """The group steps this segment per message after all: every
        parked member resumes now with None, and the communicator stays
        per-message."""
        self.victims, state = (), self.state
        state.per_message, state.segment = True, None
        now = state.universe.engine.now
        for fut in self.futs:
            if fut is not None:
                fut.set_result(None, at=now)
        return False

    def take(self, rank: int) -> Any:
        """``rank``'s share, on resume.  A member that resumes before the
        last one arrived advances the arc it needs, ``n`` members either
        side (the ends' garbage gets ``n`` rows in)."""
        n, values = self.n, self.values
        if self.outs is not None:
            return self.outs[rank]
        return self.advance([values[(rank + d) % len(values)]
                             for d in range(-n, n + 1)], n)[n]

    def fail(self, exc: BaseException, at: float) -> None:
        """Doom the round and those after it: everyone parked gets ``exc``."""
        if self.doom is None:
            self.doom = exc
            for fut in self.futs:
                if fut is not None:
                    fut.set_exception(exc, at=at)
        if self.next is not None:
            self.next.fail(exc, at)

    def on_death(self, rank: int, now: float) -> None:
        self.need -= 1
        if self.times[rank] is not None:
            self.times[rank] = None
            self.arrived -= 1
        self.fail(ProcFailedError(
            f"collective segment failed: dead ranks {(rank,)}",
            failed_ranks=(rank,)), now + self.state.rounds.detect)
        if self.arrived == self.need:
            self.state.segment = self.next
        if self.next is not None:
            self.next.on_death(rank, now)
