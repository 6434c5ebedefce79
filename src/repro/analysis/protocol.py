"""ULFM recovery-protocol checker over recorded MPI traces.

The paper's repair sequence (Figs. 4-7) is a strict state machine:

    detect -> revoke -> shrink -> spawn -> merge -> (agree) -> split

This module replays a :class:`~repro.mpi.tracing.Tracer` event stream and
flags transitions that violate that order, per communicator.  Communicator
lineage follows the simulator's naming convention: ``X.shrunk`` is the
shrink of ``X``, ``<job>.bridge`` the intercommunicator created by spawn
job ``<job>``, ``B.merged`` the merge of bridge ``B`` and ``M.split<c>``
a split of ``M``.

Rule catalog (see ``docs/analysis.md`` for rationale and examples):

=========================== ==============================================
PROTO-SHRINK-BEFORE-REVOKE  shrink on a damaged communicator that was
                            never revoked (survivors not adjacent to the
                            failure can hang in pending operations)
PROTO-SPAWN-BEFORE-SHRINK   spawn_multiple collective over a communicator
                            with dead members (must spawn on the shrunk
                            communicator)
PROTO-MERGE-BEFORE-SPAWN    intercommunicator merge before the spawn that
                            creates the bridge
PROTO-SPLIT-BEFORE-MERGE    rank-restoring split before the merge that
                            forms the ordered intracommunicator
PROTO-USE-AFTER-REVOKE      ordinary (non-fault-tolerant) operation on a
                            communicator after revocation propagated
=========================== ==============================================

``agree`` is deliberately unordered relative to ``merge``: the paper's
parents agree *after* merging (Fig. 5 l.14-15) while children agree
*before* (Fig. 3 l.21-22); both are legal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..mpi.collectives import RvKind, ops_with
from ..mpi.tracing import TraceEvent, TruncatedTraceError, complete_events

__all__ = ["ProtocolViolation", "CommRecord", "check_protocol",
           "recovery_episodes", "format_violations", "TruncatedTraceError"]

#: ULFM fault-tolerant operations, legal on damaged/revoked communicators
_FAULT_TOLERANT = ops_with(RvKind.SURVIVOR)


@dataclass
class ProtocolViolation:
    rule: str
    time: float
    comm: Optional[str]
    message: str
    events: tuple = ()

    def __str__(self) -> str:
        where = f" [{self.comm}]" if self.comm else ""
        return f"t={self.time:.6f} {self.rule}{where}: {self.message}"


@dataclass
class CommRecord:
    """Running per-communicator knowledge accumulated during the replay."""
    name: str
    members: Set[str] = field(default_factory=set)
    revoke_called_at: Optional[float] = None
    revoke_done_at: Optional[float] = None
    ops: List[str] = field(default_factory=list)

    def derived_from_shrink(self) -> bool:
        return ".shrunk" in self.name


class _Replay:
    def __init__(self):
        self.comms: Dict[str, CommRecord] = {}
        self.dead: Set[str] = set()
        #: spawn job name -> spawn event (bridge comms are ``<job>.bridge``)
        self.spawns: Dict[str, TraceEvent] = {}
        self.any_spawn_seen = False
        #: comm name -> first merge event on it
        self.merges: Dict[str, TraceEvent] = {}
        self.violations: List[ProtocolViolation] = []

    def comm(self, name: str) -> CommRecord:
        rec = self.comms.get(name)
        if rec is None:
            rec = self.comms[name] = CommRecord(name)
        return rec

    def flag(self, rule: str, ev: TraceEvent, message: str,
             comm: Optional[str] = None) -> None:
        self.violations.append(ProtocolViolation(
            rule, ev.time, comm if comm is not None else ev.comm,
            message, (ev,)))

    # ------------------------------------------------------------------
    def dead_members(self, rec: CommRecord) -> Set[str]:
        return rec.members & self.dead

    def feed(self, ev: TraceEvent) -> None:
        handler = getattr(self, f"_on_{ev.kind}", None)
        if handler is not None:
            handler(ev)

    # -- event handlers -------------------------------------------------
    def _on_kill(self, ev: TraceEvent) -> None:
        self.dead.add(ev.actor)

    def _on_revoke(self, ev: TraceEvent) -> None:
        rec = self.comm(ev.comm)
        rec.members.add(ev.actor)
        if rec.revoke_called_at is None:
            rec.revoke_called_at = ev.time

    def _on_revoked(self, ev: TraceEvent) -> None:
        self.comm(ev.comm).revoke_done_at = ev.time

    def _on_spawn(self, ev: TraceEvent) -> None:
        self.any_spawn_seen = True
        self.spawns.setdefault(ev.actor, ev)
        parent = ev.parent
        rec = self.comm(parent)
        dead = self.dead_members(rec)
        if dead and not rec.derived_from_shrink():
            self.flag("PROTO-SPAWN-BEFORE-SHRINK", ev,
                      f"spawn_multiple is collective over {parent} which "
                      f"has dead member(s) {sorted(dead)}; replacements "
                      "must be spawned on the shrunk communicator",
                      comm=parent)

    def _on_send(self, ev: TraceEvent) -> None:
        self._use(ev, f"send {ev.src}->{ev.dst}")

    def _on_recv(self, ev: TraceEvent) -> None:
        self._use(ev, f"recv {ev.src}->{ev.dst}")

    def _use(self, ev: TraceEvent, what: str) -> None:
        rec = self.comm(ev.comm)
        rec.members.add(ev.actor)
        self._check_use_after_revoke(rec, ev, what)

    def _check_use_after_revoke(self, rec: CommRecord, ev: TraceEvent,
                                what: str) -> None:
        if rec.revoke_done_at is not None and ev.time > rec.revoke_done_at:
            self.flag("PROTO-USE-AFTER-REVOKE", ev,
                      f"{what} on {rec.name} after revocation propagated "
                      f"at t={rec.revoke_done_at:.6f}; only agree/shrink "
                      "are legal on a revoked communicator")

    def _on_coll(self, ev: TraceEvent) -> None:
        rec = self.comm(ev.comm)
        rec.members.add(ev.actor)
        rec.ops.append(ev.op)
        op = ev.op
        if op not in _FAULT_TOLERANT:
            self._check_use_after_revoke(rec, ev, f"collective {op}")
        if op == "shrink":
            dead = self.dead_members(rec)
            if dead and rec.revoke_called_at is None:
                self.flag("PROTO-SHRINK-BEFORE-REVOKE", ev,
                          f"shrink on {rec.name} (dead member(s) "
                          f"{sorted(dead)}) without a prior revoke; "
                          "survivors blocked in pending operations on "
                          "this communicator will never be released")
        elif op == "merge":
            self.merges.setdefault(ev.comm, ev)
            if ev.comm.endswith(".bridge"):
                job = ev.comm[:-len(".bridge")]
                if job not in self.spawns:
                    self.flag("PROTO-MERGE-BEFORE-SPAWN", ev,
                              f"merge on bridge {ev.comm} before spawn "
                              f"job {job} launched its processes")
            elif not self.any_spawn_seen:
                self.flag("PROTO-MERGE-BEFORE-SPAWN", ev,
                          f"merge on {ev.comm} before any spawn: there is "
                          "no intercommunicator to merge yet")
        elif op == "split":
            if ev.comm.endswith(".merged"):
                base = ev.comm[:-len(".merged")]
                if base not in self.merges:
                    self.flag("PROTO-SPLIT-BEFORE-MERGE", ev,
                              f"rank-restoring split on {ev.comm} before "
                              f"the merge that creates it from {base}")


def check_protocol(trace, *, allow_truncated: bool = False
                   ) -> List[ProtocolViolation]:
    """Replay a trace and return every protocol violation found.

    ``trace`` is a :class:`~repro.mpi.tracing.Tracer` (or any object with
    ``events``/``dropped``).  Raises :class:`TruncatedTraceError` when the
    recorder overflowed, unless ``allow_truncated`` is set.
    """
    replay = _Replay()
    for ev in complete_events(trace, allow_truncated=allow_truncated):
        replay.feed(ev)
    return replay.violations


# ----------------------------------------------------------------------
# recovery-episode summary (the positive report for the CLI)
# ----------------------------------------------------------------------
@dataclass
class RecoveryEpisode:
    """One revoke-initiated repair: phase timestamps as observed."""
    comm: str
    revoke_at: float
    shrink_at: Optional[float] = None
    spawn_at: Optional[float] = None
    merge_at: Optional[float] = None
    split_at: Optional[float] = None

    def describe(self) -> str:
        def phase(name, t):
            return f"{name}@{t:.6f}" if t is not None else f"{name}@-"
        return (f"{self.comm}: revoke@{self.revoke_at:.6f} -> "
                + " -> ".join(phase(n, t) for n, t in (
                    ("shrink", self.shrink_at), ("spawn", self.spawn_at),
                    ("merge", self.merge_at), ("split", self.split_at))))


def recovery_episodes(trace, *, allow_truncated: bool = False
                      ) -> List[RecoveryEpisode]:
    """Group trace events into revoke-initiated recovery episodes."""
    episodes: List[RecoveryEpisode] = []
    current: Optional[RecoveryEpisode] = None
    for ev in complete_events(trace, allow_truncated=allow_truncated):
        if ev.kind == "revoke":
            if current is None or current.comm != ev.comm:
                current = RecoveryEpisode(ev.comm, ev.time)
                episodes.append(current)
        elif ev.kind == "coll" and current is not None:
            if ev.op == "shrink" and ev.comm == current.comm \
                    and current.shrink_at is None:
                current.shrink_at = ev.time
            elif ev.op == "merge" and current.merge_at is None:
                current.merge_at = ev.time
            elif ev.op == "split" and current.merge_at is not None \
                    and current.split_at is None:
                current.split_at = ev.time
        elif ev.kind == "spawn" and current is not None \
                and current.spawn_at is None:
            current.spawn_at = ev.time
    return episodes


def format_violations(violations: List[ProtocolViolation]) -> str:
    if not violations:
        return "protocol check: clean"
    lines = [f"protocol check: {len(violations)} violation(s)"]
    lines += [f"  {v}" for v in violations]
    return "\n".join(lines)
