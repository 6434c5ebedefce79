"""Happens-before analysis: message races and deadlock explanation.

Two independent tools live here:

* :func:`find_message_races` — a vector-clock happens-before checker over a
  recorded trace.  For every wildcard (``ANY_SOURCE``) receive it finds
  *other* sends that could equally have matched but are causally concurrent
  with the send that did: a message race.  The simulator itself resolves
  such races deterministically (earliest arrival wins), but on a real MPI
  the outcome is timing-dependent — exactly the class of bug that only
  shows up at scale.

* :func:`format_wait_for_graph` — given the blocked tasks of a
  :class:`~repro.simkernel.errors.DeadlockError`, reconstructs who waits on
  whom (from the message boards and open rounds at deadlock time, or the
  ``waits_for`` annotation of a co-simulated segment) and renders the
  wait-for graph including any cycle.  The engine attaches this
  to the deadlock message.

Happens-before edges used by the vector clocks:

1. program order within each actor;
2. send -> matching receive (matched FIFO per (comm, src, dst, tag),
   mirroring the simulator's eager matching; every traced send and
   receive is on an intracommunicator, since a bridge has no
   point-to-point);
3. collective completion: every participant's next event happens after all
   arrivals of that rendezvous (the k-th collective call of each member of
   a communicator joins one rendezvous, per channel, like the engine).  A
   bridge's ``agree`` spans one of its two groups, which the trace does
   not tell apart, so it stays a local event.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..mpi.tracing import TraceEvent, complete_events

__all__ = ["MessageRace", "find_message_races", "format_races",
           "build_wait_for_graph", "format_wait_for_graph"]


# ----------------------------------------------------------------------
# vector clocks
# ----------------------------------------------------------------------
class _VC(dict):
    """Vector clock: actor -> counter, missing entries are 0."""

    def join(self, other: "_VC") -> None:
        for k, v in other.items():
            if v > self.get(k, 0):
                self[k] = v

    def happens_before(self, other: "_VC") -> bool:
        """True iff self < other (strictly, component-wise <=, one <)."""
        at_most = all(v <= other.get(k, 0) for k, v in self.items())
        return at_most and self != other

    def concurrent(self, other: "_VC") -> bool:
        return not self.happens_before(other) \
            and not other.happens_before(self)


class _CollGroup:
    """Accumulates arrival clocks of one rendezvous; the join is applied
    to each participant's *next* event (by then all arrivals are in)."""

    __slots__ = ("acc",)

    def __init__(self):
        self.acc = _VC()


def _channel_of(op: str) -> str:
    # agree/shrink rendezvous on their own channels, like the simulator
    return op if op in ("agree", "shrink") else "coll"


def compute_vector_clocks(events: Sequence[TraceEvent]) -> List[_VC]:
    """Vector clock of each event, by position in ``events``."""
    clocks: Dict[str, _VC] = defaultdict(_VC)
    pending_join: Dict[str, List[_CollGroup]] = defaultdict(list)
    groups: Dict[tuple, _CollGroup] = {}
    occurrence: Dict[tuple, int] = defaultdict(int)
    send_vc_queue: Dict[tuple, List[_VC]] = defaultdict(list)
    out: List[_VC] = []

    for ev in events:
        actor = ev.actor
        vc = clocks[actor]
        for group in pending_join.pop(actor, ()):
            vc.join(group.acc)
        vc[actor] = vc.get(actor, 0) + 1

        if ev.kind == "send":
            send_vc_queue[(ev.comm, ev.src, ev.dst, ev.tag)].append(_VC(vc))
        elif ev.kind == "recv":
            queue = send_vc_queue.get((ev.comm, ev.src, ev.dst, ev.tag))
            if queue:
                vc.join(queue.pop(0))
        elif ev.kind == "coll":
            # a bridge's local-group agree: a local event (module docstring)
            if not (ev.op == "agree" and ev.comm.endswith(".bridge")):
                chan = _channel_of(ev.op)
                okey = (actor, ev.comm, chan)
                k = occurrence[okey]
                occurrence[okey] = k + 1
                gkey = (ev.comm, chan, ev.op, k)
                group = groups.get(gkey)
                if group is None:
                    group = groups[gkey] = _CollGroup()
                group.acc.join(vc)
                pending_join[actor].append(group)

        out.append(_VC(vc))
    return out


# ----------------------------------------------------------------------
# message races
# ----------------------------------------------------------------------
@dataclass
class MessageRace:
    """Two causally concurrent sends competed for one wildcard receive."""
    comm: str
    recv: TraceEvent            #: the ANY_SOURCE receive
    matched_send: TraceEvent    #: the send that won
    racing_send: TraceEvent     #: a concurrent send that could have won

    def __str__(self) -> str:
        return (f"message race on {self.comm}: wildcard recv by "
                f"{self.recv.actor} (t={self.recv.time:.6f}) matched send "
                f"{self.matched_send.src}->{self.matched_send.dst} "
                f"tag={self.matched_send.tag} "
                f"(t={self.matched_send.time:.6f}) but send "
                f"{self.racing_send.src}->{self.racing_send.dst} "
                f"tag={self.racing_send.tag} "
                f"(t={self.racing_send.time:.6f}) is concurrent and could "
                "equally have matched")


def find_message_races(trace, *, allow_truncated: bool = False
                       ) -> List[MessageRace]:
    """Detect message races on wildcard receives in a recorded trace."""
    events = complete_events(trace, allow_truncated=allow_truncated)
    vcs = compute_vector_clocks(events)
    sends = [(i, e) for i, e in enumerate(events) if e.kind == "send"]
    races: List[MessageRace] = []
    matched: Dict[tuple, int] = defaultdict(int)  # FIFO cursor per channel

    for at, ev in enumerate(events):
        if ev.kind != "recv" or not ev.anysrc:
            continue
        # identify the matched send (FIFO per (comm, src, dst, tag))
        ckey = (ev.comm, ev.src, ev.dst, ev.tag)
        candidates = [(i, s) for i, s in sends
                      if (s.comm, s.src, s.dst, s.tag) == ckey]
        cursor = matched[ckey]
        matched[ckey] += 1
        if cursor >= len(candidates):
            continue  # unmatched (shouldn't happen on complete traces)
        w, winner = candidates[cursor]
        for i, s in sends:
            if s.comm != ev.comm or s.dst != ev.dst or s.src == winner.src:
                continue
            if not ev.anytag and s.tag != ev.tag:
                continue
            if i > at:
                continue  # posted after the receive completed
            if vcs[w].concurrent(vcs[i]):
                races.append(MessageRace(ev.comm, ev, winner, s))
    return races


def format_races(races: List[MessageRace]) -> str:
    if not races:
        return "race check: clean"
    lines = [f"race check: {len(races)} message race(s)"]
    lines += [f"  {r}" for r in races]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# wait-for graph (deadlock explanation)
# ----------------------------------------------------------------------
def _task_of(proc) -> Optional[object]:
    return getattr(proc, "task", None)


def _blockers(task, info) -> List[Tuple[object, str]]:
    """(blocking task, reason) pairs for one blocked task's dependency."""
    state = info["state"]
    kind = info["kind"]
    proc = task.meta.get("proc")
    out: List[Tuple[object, str]] = []
    if kind == "recv":
        source, tag = info["source"], info["tag"]
        pool = state.procs
        wildcard = source < 0
        reason = (f"recv(src={'ANY' if wildcard else source}, "
                  f"tag={'ANY' if tag < 0 else tag}) on {state.name}")
        if wildcard:
            for p in pool:
                if p is not proc and not p.dead and _task_of(p) is not None:
                    out.append((_task_of(p), reason))
        elif 0 <= source < len(pool):
            p = pool[source]
            if _task_of(p) is not None:
                out.append((_task_of(p), reason))
    elif kind == "coll":
        reason = f"{info['op']} on {state.name}"
        for m in info["rnd"].missing():
            if _task_of(m) is not None:
                out.append((_task_of(m), reason))
    return out


def _reconstruct_waits_for(task, fut) -> Optional[dict]:
    """Rebuild the wait info for an unannotated future.

    The MPI layer keeps no per-call ``waits_for`` bookkeeping on its
    point-to-point and collective futures, so at deadlock time we search
    the runtime registries instead: a future blocked in a receive is
    referenced by
    exactly one :class:`~repro.mpi.matching.PendingRecv` on some
    communicator's message board, and a future blocked in a collective is
    the shared future of exactly one open round.  Both searches walk only
    this process's communicators — cold-path work paid once per deadlock,
    never per message.
    """
    proc = task.meta.get("proc")
    if proc is None:
        return None
    for state in proc.comm_states:
        for queue in state.board.waiting.values():
            for r in queue:
                if r.future is fut:
                    return {"kind": "recv", "state": state,
                            "source": r.source, "tag": r.tag}
        for rnd in state.rounds.open.values():
            if rnd.fut is fut:
                return {"kind": "coll", "op": rnd.op, "state": state,
                        "rnd": rnd}
    return None


def build_wait_for_graph(blocked_tasks) -> Dict[object, List[Tuple[object, str]]]:
    """Map each blocked task to the tasks it is waiting on (with reasons).

    Dependencies come from the ``waits_for`` annotation the MPI layer sets
    on a co-simulated segment's future; every other future's dependency is
    reconstructed from the message boards and open rounds.  Tasks whose
    dependency cannot be determined either way appear with an empty
    dependency list.
    """
    graph: Dict[object, List[Tuple[object, str]]] = {}
    for task in blocked_tasks:
        fut = task.waiting_on
        info = getattr(fut, "waits_for", None)
        try:
            if info is None:
                info = _reconstruct_waits_for(task, fut)
            if info is None:
                graph[task] = []
                continue
            graph[task] = _blockers(task, info)
        except Exception:  # noqa: ULF001 - must never mask the deadlock
            graph[task] = []
    return graph


def _find_cycle(graph) -> List[object]:
    """One cycle (as a task list), or [] when the graph is acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {t: WHITE for t in graph}
    stack: List[object] = []

    def dfs(node) -> Optional[List[object]]:
        color[node] = GREY
        stack.append(node)
        for succ, _reason in graph.get(node, ()):
            if succ not in graph:
                continue
            if color.get(succ) == GREY:
                return stack[stack.index(succ):] + [succ]
            if color.get(succ) == WHITE:
                found = dfs(succ)
                if found:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for t in list(graph):
        if color[t] == WHITE:
            found = dfs(t)
            if found:
                return found
    return []


def format_wait_for_graph(blocked_tasks) -> str:
    """Human-readable wait-for graph for a set of blocked tasks."""
    graph = build_wait_for_graph(blocked_tasks)
    if not graph:
        return ""
    lines = ["wait-for graph:"]
    for task, deps in graph.items():
        if not deps:
            what = getattr(task.waiting_on, "label", None) or \
                repr(task.waiting_on)
            lines.append(f"  {task.name} waits on {what} "
                         "(no dependency info)")
            continue
        reason = deps[0][1]
        names = ", ".join(sorted({d[0].name for d in deps}))
        lines.append(f"  {task.name} waits for {reason} <- blocked on: "
                     f"{names}")
    cycle = _find_cycle(graph)
    if cycle:
        lines.append("  cycle: " + " -> ".join(t.name for t in cycle))
    return "\n".join(lines)
