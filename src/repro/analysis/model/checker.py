"""Explicit-state model checker for extracted recovery protocols.

The checker runs one :class:`~repro.analysis.model.ir.Skeleton` per rank
(plus an optional child skeleton for re-spawned processes) and explores
the cross-rank product state space with protocol-level failure
injection.  It mirrors the simulator's rendezvous semantics exactly:

* ordinary collectives share one ordered rendezvous stream per
  communicator (channel ``"coll"`` — MPI's same-order rule);
* ``agree`` and ``shrink`` are fault-tolerant: they run on their own
  channels, complete over the *survivors*, and are legal on revoked
  communicators;
* on a bridge intercommunicator, ``agree`` spans only the caller's local
  group (channel ``agree-a`` / ``agree-b``) while ``merge`` spans both
  groups — the asymmetry that makes the paper's parents-merge-then-agree
  / children-agree-then-merge call sequence deadlock-free, and exactly
  what a naive all-member model would mis-flag.

Failure injection and partial-order reduction
---------------------------------------------

Deterministic local execution (assignments, branches on concrete
values) is folded into each step; visible protocol ops are scheduled
canonically (lowest process id first).  This is sound for the
properties checked here because the explored operations commute:
rendezvous arrivals complete identically in any arrival order, buffered
sends and their matching receives converge, and a revoke races with an
arrival to the same raised error.  The only true branching points are
(a) branches on values the abstraction lost (both outcomes explored)
and (b) failure injection.

Kills follow the paper's failure model: processes die *during solve
segments* (``plan_failures`` arms failures at a fraction of solve time),
so a victim is eligible while it executes or waits in a ``halo`` op —
the IR's abstraction of one stepping segment.  Each eligible victim can
die immediately before its arrival or at any point while it waits, up
to the configured failure budget.  Checkpoint-store accesses are
scheduled canonically but not permuted: every shipped protocol (and any
sane one) separates write and restore phases with collectives, and the
ULF018 rule compares restores *between* writes, so the missing
permutations cannot change any verdict.

Any state in which no process can run and no rendezvous can ever
complete is a hang; it is classified as ULF019 (stuck in the
spawn/merge handshake), ULF016 (a live rank already ran past the
collective others wait on) or ULF017 (all other cross-waits), with the
counterexample rendered as a per-rank step timeline.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Tuple

from .ir import (FT_OPS, OPAQUE, Branch, FailStop, Jump, Op, Return,
                 SetVar, Skeleton)

__all__ = ["ProtocolModel", "CheckResult", "ModelViolation", "ModelError",
           "check_model"]

#: hard cap on explored states — hitting it means the abstraction blew up
STATE_LIMIT = 250_000

#: the ``bin`` and ``cmp`` operators
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "//": operator.floordiv, "%": operator.mod, "max": max,
              "min": min, "==": operator.eq, "!=": operator.ne,
              "<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge}

_REVOKED = "revoked"
_PROC_FAILED = "proc_failed"


class ModelError(RuntimeError):
    """The model itself is malformed (not a protocol finding)."""


class ModelViolation:
    """One protocol finding with its counterexample."""

    def __init__(self, rule: str, lineno: int, message: str,
                 timeline: str = ""):
        self.rule = rule
        self.lineno = lineno
        self.message = message
        self.timeline = timeline

    def __repr__(self) -> str:
        return f"ModelViolation({self.rule}, line {self.lineno})"


class ProtocolModel:
    """What to check: a main skeleton per rank plus an optional child
    skeleton for processes created by ``spawn``."""

    def __init__(self, main: Skeleton, ranks: int,
                 child: Optional[Skeleton] = None, failures: int = 1):
        if ranks < 1:
            raise ModelError("a protocol model needs at least one rank")
        if failures < 0:
            raise ModelError("failure budget must be >= 0")
        self.main = main
        self.child = child
        self.ranks = ranks
        self.failures = failures


class CheckResult:
    def __init__(self, model: ProtocolModel):
        self.model = model
        self.violations: List[ModelViolation] = []
        self.states = 0
        self.terminals = 0
        self.kills_explored = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        name = self.model.main.name
        if self.ok:
            return (f"{name}: deadlock-free — {self.states} states, "
                    f"{self.terminals} terminal(s), "
                    f"{self.kills_explored} failure placement(s), "
                    f"{self.model.ranks} rank(s), "
                    f"budget {self.model.failures}")
        rules = ", ".join(sorted({v.rule for v in self.violations}))
        return (f"{name}: {len(self.violations)} violation(s) [{rules}] "
                f"in {self.states} states")


# --------------------------------------------------------------------------
# state representation


class _Comm:
    """Immutable communicator descriptor."""

    __slots__ = ("cid", "kind", "members", "side_a", "side_b", "revoked")

    def __init__(self, cid, kind, members, side_a=(), side_b=(),
                 revoked=False):
        self.cid = cid
        self.kind = kind                # "intra" | "inter"
        self.members = members          # pid tuple (rank -> pid)
        self.side_a = side_a            # inter only: spawning side pids
        self.side_b = side_b            # inter only: child side pids
        self.revoked = revoked

    def with_revoked(self) -> "_Comm":
        return _Comm(self.cid, self.kind, self.members, self.side_a,
                     self.side_b, True)

    def key(self):
        return (self.cid, self.kind, self.members, self.side_a,
                self.side_b, self.revoked)


class _Proc:
    __slots__ = ("pid", "prog", "pc", "env", "status", "blocked", "slot",
                 "spawned")

    def __init__(self, pid, prog, slot, spawned=False):
        self.pid = pid
        self.prog = prog                # "main" | "child"
        self.pc = 0
        self.env: Dict[str, object] = {}
        self.status = "run"             # run|blocked|done|dead
        self.blocked = None             # arrival tuple, see _arrive
        self.slot = slot                # world rank (original numbering)
        self.spawned = spawned

    @property
    def alive(self) -> bool:
        return self.status != "dead"

    def label(self) -> str:
        return f"r{self.slot}'" if self.spawned else f"r{self.slot}"

    def clone(self) -> "_Proc":
        p = _Proc(self.pid, self.prog, self.slot, self.spawned)
        p.pc = self.pc
        p.env = dict(self.env)
        p.status = self.status
        p.blocked = self.blocked
        return p

    def key(self):
        return (self.pid, self.prog, self.pc, self.status, self.slot,
                self.spawned, self.blocked,
                # values are hashable: ints, strs, None, OPAQUE, ranges,
                # ("c", cid) refs and tuples of those
                tuple(sorted(self.env.items())))


def _untracked(v) -> bool:
    """Is ``v`` opaque, or a tuple holding an opaque value anywhere?"""
    return v is OPAQUE or (isinstance(v, tuple) and any(
        _untracked(x) for x in v))


class _State:
    __slots__ = ("procs", "comms", "msgs", "ckpt", "ckpt_version",
                 "restores", "dead_slots", "budget", "seq", "next_cid",
                 "next_pid")

    def clone(self) -> "_State":
        s = _State()
        s.procs = [p.clone() for p in self.procs]
        s.comms = dict(self.comms)
        s.msgs = list(self.msgs)
        s.ckpt = dict(self.ckpt)
        s.ckpt_version = self.ckpt_version
        s.restores = list(self.restores)
        s.dead_slots = self.dead_slots
        s.budget = self.budget
        s.seq = self.seq
        s.next_cid = self.next_cid
        s.next_pid = self.next_pid
        return s

    def key(self):
        return (tuple(p.key() for p in self.procs),
                tuple(c.key() for _, c in sorted(self.comms.items())),
                tuple(sorted(self.msgs, key=lambda m: m[5])),
                tuple(sorted(self.ckpt.items())),
                self.ckpt_version,
                tuple(self.restores),
                self.dead_slots, self.budget)


def _initial_state(model: ProtocolModel) -> _State:
    s = _State()
    s.procs = [_Proc(i, "main", i) for i in range(model.ranks)]
    s.comms = {0: _Comm(0, "intra", tuple(range(model.ranks)))}
    s.msgs = []
    s.ckpt = {}
    s.ckpt_version = 0
    s.restores = []
    s.dead_slots = ()
    s.budget = model.failures
    s.seq = 0
    s.next_cid = 1
    s.next_pid = model.ranks
    for p in s.procs:
        p.env["__world__"] = ("c", 0)
        p.env["__parent__"] = None
    return s


# --------------------------------------------------------------------------
# exceptions raised *inside the model* (control flow, not Python errors)


class _Flag(Exception):
    """A protocol violation was detected while building a successor."""

    def __init__(self, violations: List[Tuple[str, int, str]]):
        super().__init__("protocol violation")
        self.violations = violations


# --------------------------------------------------------------------------
# checker


class _Checker:
    def __init__(self, model: ProtocolModel):
        self.model = model
        self.progs = {"main": model.main}
        if model.child is not None:
            self.progs["child"] = model.child
        self.result = CheckResult(model)
        self._seen_violations = set()
        self._lineno = 0                # of the instruction being advanced
        # parent pointers for counterexample reconstruction:
        # state key -> (parent key | None, action label)
        self._parents: Dict[object, Tuple[object, str]] = {}

    # -- expression evaluation --------------------------------------------

    def _eval(self, e, proc: _Proc, st: _State):
        if not isinstance(e, tuple) or not e:
            raise ModelError(f"bad expression {e!r}")
        tag = e[0]
        if tag == "const":
            return e[1]
        if tag == "var":
            try:
                return proc.env[e[1]]
            except KeyError:
                raise ModelError(
                    f"undefined variable {e[1]!r} in {proc.prog}")
        if tag == "opaque":
            return OPAQUE
        if tag == "tuple":
            return tuple(self._eval(x, proc, st) for x in e[1:])
        if tag == "range":
            vals = [self._eval(x, proc, st) for x in e[1:]]
            return OPAQUE if any(v is OPAQUE for v in vals) else range(*vals)
        if tag == "known_failed":
            if proc.spawned:
                return (proc.slot,)
            return tuple(sorted(st.dead_slots))
        if tag == "world_comm":
            return ("c", 0)
        if tag == "slot":
            return proc.slot
        if tag == "ifexp":
            c = self._eval(e[1], proc, st)
            return OPAQUE if c is OPAQUE else \
                self._eval(e[2] if c else e[3], proc, st)
        if tag in ("bin", "cmp"):
            op = e[1]
            a = self._eval(e[2], proc, st)
            b = self._eval(e[3], proc, st)
            if a is OPAQUE or b is OPAQUE:
                return OPAQUE
            try:
                return _OPERATORS[op](a, b)
            except TypeError:
                return OPAQUE
        if tag in ("and", "or"):
            a = self._eval(e[1], proc, st)
            if a is OPAQUE:
                return OPAQUE
            take_second = bool(a) if tag == "and" else not a
            return self._eval(e[2], proc, st) if take_second else a
        if tag == "select_key":
            vals = [self._eval(x, proc, st) for x in e[1:5]]
            if any(v is OPAQUE for v in vals):
                return OPAQUE
            from ...ft.reconstruct import select_rank_key
            rank, size, failed, total = vals
            return select_rank_key(rank, size, list(failed), total)
        a = self._eval(e[1], proc, st)
        if tag == "not":
            return OPAQUE if a is OPAQUE else (not a)
        if tag == "len":
            return OPAQUE if a is OPAQUE else len(a)
        if tag == "enumerate":
            return OPAQUE if a is OPAQUE else tuple(enumerate(a))
        if tag == "short":
            return a is not OPAQUE and len(a) <= e[2]
        if tag == "rank":
            return self._rank_of(proc, a, st)
        if tag == "size":
            c = self._comm(a, st)
            return len(c.members)
        if tag == "failed_pair":
            c = self._comm(a, st)
            failed = tuple(r for r, pid in enumerate(c.members)
                           if not st.procs[pid].alive)
            return (failed, len(failed))
        if tag == "failed_count":
            c = self._comm(a, st)
            return sum(1 for pid in c.members if not st.procs[pid].alive)
        if tag == "union_flat":
            if _untracked(a):
                return OPAQUE
            out = set()
            for part in a:
                out.update(part if isinstance(part, tuple) else (part,))
            return tuple(sorted(out))
        b = self._eval(e[2], proc, st) if len(e) > 2 else None
        if tag == "map_div":
            if _untracked(a) or b is OPAQUE:
                return OPAQUE
            return tuple(sorted({v // b for v in a}))
        if tag == "column":
            if a is OPAQUE:
                return OPAQUE
            return tuple(OPAQUE if x is OPAQUE else x[b] for x in a)
        if tag == "lookup":
            if _untracked(a):
                return OPAQUE
            return tuple(dict(b).get(v, OPAQUE) for v in a)
        if tag == "index":
            if a is OPAQUE or b is OPAQUE:
                return OPAQUE
            return a[b]
        if tag == "in":
            if a is OPAQUE or b is OPAQUE:
                return OPAQUE
            return True if a in b else (OPAQUE if _untracked(b) else False)
        if tag in ("is", "isnot"):
            if a is OPAQUE or b is OPAQUE:
                return OPAQUE
            same = a == b
            return same if tag == "is" else not same
        raise ModelError(f"unknown expression tag {tag!r}")

    def _comm(self, v, st: _State) -> _Comm:
        if not (isinstance(v, tuple) and len(v) == 2 and v[0] == "c"):
            raise ModelError(f"not a communicator value: {v!r}")
        return st.comms[v[1]]

    def _rank_of(self, proc: _Proc, v, st: _State) -> int:
        c = self._comm(v, st)
        self._require_member(proc, c)
        if c.kind == "inter":
            side = c.side_a if proc.pid in c.side_a else c.side_b
            return side.index(proc.pid)
        return c.members.index(proc.pid)

    def _require_member(self, proc: _Proc, c: _Comm) -> None:
        """Using a communicator that never admitted the caller (a
        replacement nobody re-admitted) is a finding, not a crash."""
        if proc.pid not in c.members:
            raise _Flag([("ULF017", self._lineno,
                          f"rank uses a communicator it is not a member "
                          f"of: {proc.label()} was never admitted to "
                          f"communicator {c.cid}")])

    # -- violations --------------------------------------------------------

    def _flag(self, rule: str, lineno: int, message: str,
              timeline: str) -> None:
        key = (rule, lineno)
        if key in self._seen_violations:
            return
        self._seen_violations.add(key)
        self.result.violations.append(
            ModelViolation(rule, lineno, message, timeline))

    # -- raising inside the model -----------------------------------------

    def _raise(self, proc: _Proc, kind: str, lineno: int) -> None:
        """An MPI error surfaces at the op ``proc`` is executing or
        blocked in (its pc already points past it): resume at the op's
        covering handler, if it has one."""
        proc.blocked = None
        handler = self.progs[proc.prog].instrs[proc.pc - 1].handler
        if handler is not None:
            proc.pc = handler
            proc.status = "run"
            return
        # unhandled: the failure escapes the protocol
        if kind == _REVOKED:
            raise _Flag([("ULF020", lineno,
                          "a collective on a revoked communicator is "
                          "reachable with no MPIError handler: the revoke "
                          "is not observed by every member before the "
                          "next collective")])
        raise _Flag([("ULF017", lineno,
                      "a process-failure error escapes every failure "
                      "handler at this operation: the survivor enters a "
                      "state the protocol cannot repair")])

    # -- rendezvous --------------------------------------------------------

    @staticmethod
    def _channel(kind: str, c: _Comm, proc: _Proc) -> str:
        if kind == "agree":
            if c.kind == "inter":
                return ("agree-a" if proc.pid in c.side_a else "agree-b")
            return "agree"
        if kind == "shrink":
            return "shrink"
        return "coll"

    def _rendezvous_members(self, c: _Comm, channel: str) -> Tuple[int, ...]:
        if c.kind == "inter":
            if channel == "agree-a":
                return c.side_a
            if channel == "agree-b":
                return c.side_b
            return c.side_a + c.side_b
        return c.members

    def _arrive(self, proc: _Proc, op: Op, cid: int, channel: str,
                sig, vals: dict, st: _State) -> None:
        """Register ``proc`` at a rendezvous and complete it if ready."""
        for p in st.procs:
            if (p.alive and p.blocked and p.blocked[0] == "coll"
                    and p.blocked[1] == cid and p.blocked[2] == channel
                    and p.blocked[4] != sig):
                raise _Flag([
                    ("ULF016", p.blocked[6],
                     f"collective sequence diverges under failure: this "
                     f"rank posts {p.blocked[3]} while another live rank "
                     f"posts {op.kind} on the same communicator stream"),
                    ("ULF016", op.lineno,
                     f"collective sequence diverges under failure: this "
                     f"rank posts {op.kind} while another live rank "
                     f"posts {p.blocked[3]} on the same communicator "
                     f"stream"),
                ])
        proc.status = "blocked"
        proc.blocked = ("coll", cid, channel, op.kind, sig,
                        tuple(sorted(vals.items())), op.lineno, op.out)
        self._try_complete(cid, channel, st)

    def _try_complete(self, cid: int, channel: str, st: _State) -> None:
        c = st.comms[cid]
        members = self._rendezvous_members(c, channel)
        arrived = [st.procs[pid] for pid in members
                   if st.procs[pid].alive and st.procs[pid].blocked
                   and st.procs[pid].blocked[0] == "coll"
                   and st.procs[pid].blocked[1] == cid
                   and st.procs[pid].blocked[2] == channel]
        if not arrived:
            return
        kind = arrived[0].blocked[3]
        if kind in FT_OPS:
            required = [pid for pid in members if st.procs[pid].alive]
        else:
            required = list(members)
        if {p.pid for p in arrived} != set(required):
            return
        self._complete(c, channel, kind, arrived, st)

    def _complete(self, c: _Comm, channel: str, kind: str,
                  arrived: List[_Proc], st: _State) -> None:
        def val(p, name):
            return dict(p.blocked[5]).get(name)

        def deliver(p, result):
            out = p.blocked[7]
            p.blocked = None
            p.status = "run"
            if out:
                p.env[out] = result

        order = {pid: i for i, pid in enumerate(
            self._rendezvous_members(c, channel))}
        arrived = sorted(arrived, key=lambda p: order[p.pid])

        if kind in ("barrier", "halo"):
            for p in arrived:
                deliver(p, None)
        elif kind in ("bcast", "scatter"):
            root = val(arrived[0], "root")
            root_proc = st.procs[c.members[root]]
            payload = val(root_proc, "value")
            for p in arrived:
                if kind == "bcast":
                    deliver(p, payload)
                else:
                    i = order[p.pid]
                    deliver(p, OPAQUE if payload is OPAQUE else payload[i])
        elif kind in ("reduce", "allreduce"):
            red = self._reduce(val(arrived[0], "op"),
                               [val(p, "value") for p in arrived])
            root = val(arrived[0], "root") if kind == "reduce" else None
            for p in arrived:
                if kind == "allreduce" or order[p.pid] == root:
                    deliver(p, red)
                else:
                    deliver(p, None)
        elif kind in ("gather", "allgather"):
            gathered = tuple(val(p, "value") for p in arrived)
            root = val(arrived[0], "root") if kind == "gather" else None
            for p in arrived:
                if kind == "allgather" or order[p.pid] == root:
                    deliver(p, gathered)
                else:
                    deliver(p, None)
        elif kind == "agree":
            flags = [val(p, "value") for p in arrived]
            out = flags[0]
            for f in flags[1:]:
                out = OPAQUE if (out is OPAQUE or f is OPAQUE) else out & f
            for p in arrived:
                deliver(p, out)
        elif kind == "shrink":
            new = _Comm(st.next_cid, "intra",
                        tuple(pid for pid in c.members
                              if st.procs[pid].alive))
            st.comms[new.cid] = new
            st.next_cid += 1
            for p in arrived:
                deliver(p, ("c", new.cid))
        elif kind == "split":
            self._complete_split(c, arrived, st, deliver)
        elif kind == "merge":
            self._complete_merge(c, arrived, st, deliver, val)
        elif kind == "spawn":
            self._complete_spawn(c, arrived, st, deliver, val)
        else:
            raise ModelError(f"no completion rule for {kind!r}")

    def _complete_split(self, c, arrived, st, deliver):
        by_color: Dict[object, list] = {}
        for p in arrived:
            vals = dict(p.blocked[5])
            color, key = vals.get("color"), vals.get("key")
            if color is OPAQUE or key is OPAQUE:
                raise ModelError("split with opaque color/key")
            if color is None:
                continue
            by_color.setdefault(color, []).append(
                (key, c.members.index(p.pid), p))
        out: Dict[int, tuple] = {}
        for color in sorted(by_color):
            group = sorted(by_color[color], key=lambda t: (t[0], t[1]))
            new = _Comm(st.next_cid, "intra",
                        tuple(t[2].pid for t in group))
            st.comms[new.cid] = new
            st.next_cid += 1
            for t in group:
                out[t[2].pid] = ("c", new.cid)
        for p in arrived:
            deliver(p, out.get(p.pid))

    def _complete_merge(self, c, arrived, st, deliver, val):
        if c.kind != "inter":
            raise ModelError("merge on an intracommunicator")
        a_flags = {val(p, "high") for p in arrived if p.pid in c.side_a}
        b_flags = {val(p, "high") for p in arrived if p.pid in c.side_b}
        if len(a_flags) > 1 or len(b_flags) > 1 or a_flags == b_flags:
            raise _Flag([("ULF019", p.blocked[6],
                          "inconsistent intercommunicator merge: the two "
                          "groups do not split cleanly into one low and "
                          "one high side, so the merged rank order is "
                          "undefined")
                         for p in arrived])
        low_first = c.side_a if a_flags == {False} else c.side_b
        high_last = c.side_b if low_first is c.side_a else c.side_a
        new = _Comm(st.next_cid, "intra", low_first + high_last)
        st.comms[new.cid] = new
        st.next_cid += 1
        for p in arrived:
            deliver(p, ("c", new.cid))

    def _complete_spawn(self, c, arrived, st, deliver, val):
        counts = {val(p, "count") for p in arrived}
        if len(counts) != 1:
            shown = sorted(str(v) for v in counts)
            raise _Flag([("ULF019", p.blocked[6],
                          "spawn handshake mismatch: ranks request "
                          f"different child counts {shown}")
                         for p in arrived])
        count = counts.pop()
        if count is OPAQUE or not isinstance(count, int) or count < 1:
            raise ModelError(f"spawn with untracked count {count!r}")
        if "child" not in self.progs:
            raise ModelError(
                f"{self.model.main.name} spawns but the model declares "
                f"no child program (child=... annotation)")
        taken = {p.slot for p in st.procs if p.alive and p.spawned}
        vacant = [s for s in sorted(st.dead_slots) if s not in taken]
        vacant += [s for s in sorted(st.dead_slots) if s in taken]
        children = []
        for i in range(count):
            child = _Proc(st.next_pid, "child", vacant[i] if i < len(vacant)
                          else -1, spawned=True)
            st.next_pid += 1
            children.append(child)
            st.procs.append(child)
        bridge = _Comm(st.next_cid, "inter",
                       tuple(p.pid for p in arrived) +
                       tuple(ch.pid for ch in children),
                       side_a=tuple(p.pid for p in arrived),
                       side_b=tuple(ch.pid for ch in children))
        st.comms[bridge.cid] = bridge
        st.next_cid += 1
        for ch in children:
            ch.env["__parent__"] = ("c", bridge.cid)
            ch.env["__world__"] = None   # its own spawn group: untracked
        for p in arrived:
            deliver(p, ("c", bridge.cid))

    @staticmethod
    def _reduce(op, values):
        if any(_untracked(v) for v in values):
            return OPAQUE
        if op in (None, "max"):
            return max(values)
        if op == "min":
            return min(values)
        if op == "sum":
            return sum(values)
        if op == "and":
            out = values[0]
            for v in values[1:]:
                out &= v
            return out
        return OPAQUE

    # -- p2p ---------------------------------------------------------------

    def _do_send(self, proc: _Proc, op: Op, st: _State) -> None:
        c = self._comm(self._eval(op.comm, proc, st), st)
        self._require_member(proc, c)
        if c.revoked:
            self._raise(proc, _REVOKED, op.lineno)
            return
        dest, tag = self._peer_and_tag(proc, op, st, c, "dest")
        payload = self._eval(op.args.get("value", ("const", None)),
                             proc, st)
        if not st.procs[c.members[dest]].alive:
            self._raise(proc, _PROC_FAILED, op.lineno)
            return
        src_rank = c.members.index(proc.pid)
        st.msgs.append((c.cid, src_rank, dest, tag, payload, st.seq))
        st.seq += 1
        # instant delivery to an already-blocked matching receiver
        dst_proc = st.procs[c.members[dest]]
        if (dst_proc.blocked and dst_proc.blocked[0] == "recv"
                and dst_proc.blocked[1] == c.cid
                and dst_proc.blocked[2] == src_rank
                and dst_proc.blocked[3] == tag):
            self._deliver_recv(dst_proc, c, st)

    def _peer_and_tag(self, proc: _Proc, op: Op, st: _State, c: _Comm,
                      peer: str) -> Tuple[int, int]:
        """A send's or recv's peer rank and tag, refused unless the model
        matches them as the simulator does: a named rank of ``c`` (not a
        bridge) and a non-negative tag, named on a receive (the simulator
        reads a wildcard or an omitted one as ``ANY_*``; a send's tag is 0
        in both)."""
        if c.kind == "inter":
            raise ModelError(f"{op.kind} on an intercommunicator")
        names = (peer, "tag") if op.kind == "recv" else (peer,)
        if any(name not in op.args for name in names):
            raise ModelError(f"{op.kind} without a named {' and '.join(names)}"
                             " (the simulator reads a wildcard)")
        rank = self._eval(op.args[peer], proc, st)
        tag = self._eval(op.args.get("tag", ("const", 0)), proc, st)
        if rank is OPAQUE or tag is OPAQUE:
            raise ModelError(f"{op.kind} with untracked {peer}/tag")
        if type(rank) is not int or not 0 <= rank < len(c.members):
            raise ModelError(f"{op.kind} {peer} {rank!r} is not a rank of "
                             f"a {len(c.members)}-member communicator")
        if type(tag) is not int or tag < 0:
            raise ModelError(f"{op.kind} tag {tag!r} is a wildcard or no tag")
        return rank, tag

    def _deliver_recv(self, proc: _Proc, c: _Comm, st: _State) -> bool:
        _, cid, src, tag, _lineno, out = proc.blocked
        my_rank = c.members.index(proc.pid)
        matches = [m for m in st.msgs
                   if m[0] == cid and m[1] == src and m[2] == my_rank
                   and m[3] == tag]
        if not matches:
            return False
        msg = min(matches, key=lambda m: m[5])
        st.msgs.remove(msg)
        proc.blocked = None
        proc.status = "run"
        if out:
            proc.env[out] = msg[4]
        return True

    def _do_recv(self, proc: _Proc, op: Op, st: _State) -> None:
        c = self._comm(self._eval(op.comm, proc, st), st)
        self._require_member(proc, c)
        if c.revoked:
            self._raise(proc, _REVOKED, op.lineno)
            return
        src, tag = self._peer_and_tag(proc, op, st, c, "source")
        proc.status = "blocked"
        proc.blocked = ("recv", c.cid, src, tag, op.lineno, op.out)
        if self._deliver_recv(proc, c, st):
            return
        if not st.procs[c.members[src]].alive:
            self._raise(proc, _PROC_FAILED, op.lineno)

    # -- kills -------------------------------------------------------------

    def _apply_kill(self, st: _State, victim_pid: int) -> None:
        victim = st.procs[victim_pid]
        victim.status = "dead"
        victim.blocked = None
        st.dead_slots = tuple(sorted(set(st.dead_slots) | {victim.slot}))
        st.budget -= 1
        # wake every process whose progress depended on the victim
        for p in st.procs:
            if not (p.alive and p.blocked):
                continue
            if p.blocked[0] == "coll":
                cid, channel, kind = p.blocked[1], p.blocked[2], p.blocked[3]
                c = st.comms[cid]
                members = self._rendezvous_members(c, channel)
                if victim_pid not in members:
                    continue
                if kind in FT_OPS:
                    self._try_complete(cid, channel, st)
                else:
                    self._raise(p, _PROC_FAILED, p.blocked[6])
            elif p.blocked[0] == "recv":
                cid, src = p.blocked[1], p.blocked[2]
                c = st.comms[cid]
                if c.members[src] == victim_pid:
                    if not self._deliver_recv(p, c, st):
                        self._raise(p, _PROC_FAILED, p.blocked[4])

    def _do_readmit(self, proc: _Proc, op: Op, st: _State) -> None:
        """Local membership patch (non-collective repair): replace the
        dead member at ``rank`` with the spawned process occupying the
        same world slot.  No rendezvous — other members keep running.
        Idempotent when the slot is already held by a live process, like
        ``CommState.readmit`` in the simulator."""
        c = self._comm(self._eval(op.comm, proc, st), st)
        rank = self._eval(op.args["rank"], proc, st)
        if rank is OPAQUE or not isinstance(rank, int):
            raise ModelError(
                f"readmit at line {op.lineno} with untracked rank")
        old = st.procs[c.members[rank]]
        if old.alive:
            return
        repl = next((p for p in st.procs
                     if p.alive and p.spawned and p.slot == old.slot),
                    None)
        if repl is None:
            raise ModelError(
                f"readmit at line {op.lineno}: no live spawned "
                f"replacement holds slot {old.slot}")
        members = list(c.members)
        members[rank] = repl.pid
        st.comms[c.cid] = _Comm(c.cid, c.kind, tuple(members),
                                c.side_a, c.side_b, c.revoked)

    def _do_revoke(self, proc: _Proc, op: Op, st: _State) -> None:
        c = self._comm(self._eval(op.comm, proc, st), st)
        if c.revoked:
            return
        st.comms[c.cid] = c.with_revoked()
        for p in st.procs:
            if not (p.alive and p.blocked):
                continue
            if (p.blocked[0] == "coll" and p.blocked[1] == c.cid
                    and p.blocked[3] not in FT_OPS):
                self._raise(p, _REVOKED, p.blocked[6])
            elif p.blocked[0] == "recv" and p.blocked[1] == c.cid:
                self._raise(p, _REVOKED, p.blocked[4])

    # -- one visible step --------------------------------------------------

    def _exec_op(self, proc: _Proc, op: Op, st: _State) -> None:
        if op.kind == "revoke":
            self._do_revoke(proc, op, st)
            return
        if op.kind == "ckpt_write":
            group = self._eval(op.args["group"], proc, st)
            epoch = self._eval(op.args["epoch"], proc, st)
            if group is OPAQUE or epoch is OPAQUE:
                raise ModelError("checkpoint write with untracked key")
            st.ckpt[(group, proc.slot)] = epoch
            st.ckpt_version += 1
            return
        if op.kind == "ckpt_restore":
            group = self._eval(op.args["group"], proc, st)
            if group is OPAQUE:
                raise ModelError("checkpoint restore with untracked key")
            epoch = st.ckpt.get((group, proc.slot), 0)
            st.restores.append((group, epoch, st.ckpt_version, op.lineno))
            if op.out:
                proc.env[op.out] = epoch
            return
        if op.kind == "send":
            self._do_send(proc, op, st)
            return
        if op.kind == "recv":
            self._do_recv(proc, op, st)
            return
        if op.kind == "readmit":
            self._do_readmit(proc, op, st)
            return
        # rendezvous op
        cv = self._eval(op.comm, proc, st)
        if cv is None or cv is OPAQUE:
            raise ModelError(
                f"{op.kind} at line {op.lineno} on an untracked "
                f"communicator")
        c = self._comm(cv, st)
        channel = self._channel(op.kind, c, proc)
        if op.kind not in FT_OPS:
            if c.revoked:
                self._raise(proc, _REVOKED, op.lineno)
                return
            members = self._rendezvous_members(c, channel)
            if any(not st.procs[pid].alive for pid in members):
                self._raise(proc, _PROC_FAILED, op.lineno)
                return
        vals = {}
        for name, expr in op.args.items():
            vals[name] = self._eval(expr, proc, st)
        if op.kind in ("bcast", "reduce", "gather", "scatter"):
            root = vals.get("root", 0)
            if root is OPAQUE:
                raise ModelError(f"{op.kind} with untracked root")
            sig = (op.kind, root)
        else:
            sig = (op.kind, None)
        self._arrive(proc, op, c.cid, channel, sig, vals, st)

    # -- advancing a process through local instructions --------------------

    def _advance(self, st: _State, pid: int) -> List[Tuple[_State, str]]:
        """Run proc ``pid`` up to and through its next visible op.  Returns
        successor states with action labels (several on opaque branches or
        when a kill is possible at a halo arrival)."""
        proc = st.procs[pid]
        prog = self.progs[proc.prog]
        while True:
            if proc.pc >= len(prog.instrs):
                proc.status = "done"
                return [(st, f"{proc.label()}: falls off program end")]
            instr = prog.instrs[proc.pc]
            self._lineno = instr.lineno
            if isinstance(instr, SetVar):
                proc.env[instr.name] = self._eval(instr.expr, proc, st)
                proc.pc += 1
            elif isinstance(instr, Jump):
                proc.pc = instr.target
            elif isinstance(instr, Return):
                proc.status = "done"
                return [(st, f"{proc.label()}: returns")]
            elif isinstance(instr, FailStop):
                raise _Flag([("ULF017", instr.lineno,
                              f"protocol abstraction bound exceeded: "
                              f"{instr.message}")])
            elif isinstance(instr, Branch):
                cond = self._eval(instr.cond, proc, st)
                if cond is OPAQUE:
                    other = st.clone()
                    other.procs[pid].pc = instr.else_pc
                    proc.pc = instr.then_pc
                    return [(st, f"{proc.label()}: assumes condition at "
                                 f"line {instr.lineno}"),
                            (other, f"{proc.label()}: refutes condition "
                                    f"at line {instr.lineno}")]
                proc.pc = instr.then_pc if cond else instr.else_pc
            elif isinstance(instr, Op):
                succ: List[Tuple[_State, str]] = []
                if instr.kind == "halo" and st.budget > 0:
                    killed = st.clone()
                    self._apply_kill(killed, pid)
                    self.result.kills_explored += 1
                    succ.append(
                        (killed, f"{proc.label()}: KILLED entering "
                                 f"solve segment (line {instr.lineno})"))
                proc.pc += 1
                before = proc.pc
                self._exec_op(proc, instr, st)
                desc = (f"{proc.label()}: {instr.kind} at line "
                        f"{instr.lineno}")
                if proc.status == "blocked":
                    desc += " [waits]"
                elif proc.pc != before:
                    desc += " [raises -> handler]"
                succ.insert(0, (st, desc))
                return succ
            else:
                raise ModelError(f"unknown instruction {instr!r}")

    # -- the search --------------------------------------------------------

    def run(self) -> CheckResult:
        init = _initial_state(self.model)
        queue = [init]
        key0 = init.key()
        self._parents[key0] = (None, "initial state")
        visited = {key0}
        while queue:
            st = queue.pop()
            self.result.states += 1
            if self.result.states > STATE_LIMIT:
                raise ModelError(
                    f"state limit {STATE_LIMIT} exceeded for "
                    f"{self.model.main.name}: the abstraction is too "
                    f"coarse to explore")
            parent_key = st.key()
            for nxt, action in self._expand(st, parent_key):
                k = nxt.key()
                if k in visited:
                    continue
                visited.add(k)
                self._parents[k] = (parent_key, action)
                queue.append(nxt)
        return self.result

    def _expand(self, st: _State, parent_key) -> List[Tuple[_State, str]]:
        runnable = [p.pid for p in st.procs if p.status == "run"]
        succ: List[Tuple[_State, str]] = []
        if runnable:
            pid = min(runnable)
            work = st.clone()
            try:
                succ.extend(self._advance(work, pid))
            except _Flag as flag:
                self._record(flag.violations, parent_key,
                             extra=f"while advancing "
                                   f"{st.procs[pid].label()}")
            # kills of processes already waiting inside a solve segment
            for p in st.procs:
                if (st.budget > 0 and p.alive and p.blocked
                        and p.blocked[0] == "coll"
                        and p.blocked[3] == "halo"):
                    killed = st.clone()
                    try:
                        self._apply_kill(killed, p.pid)
                        self.result.kills_explored += 1
                        succ.append(
                            (killed, f"{p.label()}: KILLED inside solve "
                                     f"segment (line {p.blocked[6]})"))
                    except _Flag as flag:
                        self._record(flag.violations, parent_key,
                                     extra=f"after killing {p.label()}")
            return succ
        # no runnable process: terminal or hang
        blocked = [p for p in st.procs if p.alive and p.blocked]
        if not blocked:
            self._check_terminal(st, parent_key)
            return []
        self._record(self._classify_hang(st, blocked), parent_key)
        return []

    def _classify_hang(self, st: _State, blocked: List[_Proc]):
        sites = ", ".join(
            f"{p.label()} at {p.blocked[3] if p.blocked[0] == 'coll' else 'recv'} "
            f"(line {p.blocked[6] if p.blocked[0] == 'coll' else p.blocked[4]})"
            for p in blocked)
        anchor = min(blocked, key=lambda p: p.pid)
        anchor_line = (anchor.blocked[6] if anchor.blocked[0] == "coll"
                       else anchor.blocked[4])
        for p in blocked:
            if p.blocked[0] == "coll" and (
                    p.blocked[3] in ("merge", "spawn")
                    or p.blocked[2].startswith("agree-")):
                return [("ULF019", p.blocked[6],
                         f"spawn/merge handshake deadlock: {sites}; no "
                         f"sequence of events completes the "
                         f"intercommunicator handshake")]
        for p in blocked:
            if p.blocked[0] != "coll":
                continue
            c = st.comms[p.blocked[1]]
            members = self._rendezvous_members(c, p.blocked[2])
            if any(st.procs[pid].status == "done" for pid in members):
                return [("ULF016", p.blocked[6],
                         f"collective sequence diverges: a live rank "
                         f"already finished without posting the "
                         f"collective these ranks wait on ({sites})")]
        return [("ULF017", anchor_line,
                 f"unreachable repair state: {sites}; every live rank "
                 f"waits on a phase no live rank will enter")]

    def _check_terminal(self, st: _State, parent_key) -> None:
        self.result.terminals += 1
        # ULF018: restores of the same group between the same writes must
        # observe the same epoch
        by_group: Dict[Tuple[object, int], set] = {}
        lines: Dict[Tuple[object, int], int] = {}
        for group, epoch, version, lineno in st.restores:
            by_group.setdefault((group, version), set()).add(epoch)
            lines.setdefault((group, version), lineno)
        for (group, version), epochs in by_group.items():
            if len(epochs) > 1:
                self._record(
                    [("ULF018", lines[(group, version)],
                      f"checkpoint-epoch inconsistency: ranks restoring "
                      f"sub-grid {group} in the same recovery observe "
                      f"different epochs {sorted(epochs)}")],
                    parent_key)

    # -- counterexample rendering ------------------------------------------

    def _record(self, violations, parent_key, extra: str = "") -> None:
        timeline = self._timeline(parent_key, extra)
        for rule, lineno, message in violations:
            self._flag(rule, lineno, message, timeline)

    def _timeline(self, key, extra: str = "") -> str:
        steps: List[str] = []
        while key is not None:
            parent, action = self._parents[key]
            steps.append(action)
            key = parent
        steps.reverse()
        # drop the uninformative prefix entry
        if steps and steps[0] == "initial state":
            steps = steps[1:]
        out = [f"  step {i + 1:3d}: {s}" for i, s in enumerate(steps)]
        if extra:
            out.append(f"  then: {extra}")
        return "\n".join(out) if out else "  (initial state)"


def check_model(model: ProtocolModel) -> CheckResult:
    """Explore ``model`` exhaustively and return the findings."""
    return _Checker(model).run()
