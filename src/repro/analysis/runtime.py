"""Post-run leak audit of a simulated MPI universe.

After a simulation finishes, every resource a rank allocated should be
either consumed or torn down by the failure machinery.  This module walks
the live object graph of a :class:`~repro.mpi.universe.Universe` and
reports what was left behind:

*errors* (a rank finished cleanly while still owning the resource):

* a pending receive (``irecv`` posted, never awaited or cancelled) whose
  owning task is DONE;
* an open collective round holding the arrival of a task that is DONE —
  the rank joined a collective and then returned without its completion.

*warnings* (suspicious but sometimes intentional):

* messages posted but never received (e.g. sends raced with a failure);
* communicators whose every member is dead yet still holding state.

The pytest plugin (:mod:`repro.analysis.pytest_plugin`) fails mpi-layer
tests on errors; warnings are attached to the report only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..simkernel.task import TaskState

__all__ = ["LeakReport", "check_runtime_leaks"]

_FINISHED_CLEAN = (TaskState.DONE,)


@dataclass
class LeakReport:
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.errors and not self.warnings

    def __str__(self) -> str:
        if self.clean:
            return "leak check: clean"
        lines = [f"leak check: {len(self.errors)} error(s), "
                 f"{len(self.warnings)} warning(s)"]
        lines += [f"  error: {e}" for e in self.errors]
        lines += [f"  warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def _comm_states(universe) -> list:
    return list(dict.fromkeys(state for proc in universe.all_procs.values()
                              for state in proc.comm_states))


def check_runtime_leaks(universe) -> LeakReport:
    """Audit a finished (or stopped), unclosed universe for MPI leaks."""
    if universe.closed:
        raise ValueError("the universe was closed: nothing left to audit")
    report = LeakReport()
    for state in _comm_states(universe):
        name = state.name
        # pending receives whose owner already returned
        for dst, queue in state.board.waiting.items():
            for recv in queue:
                proc = state.procs[dst]
                task = getattr(proc, "task", None)
                if task is not None and task.state in _FINISHED_CLEAN:
                    report.errors.append(
                        f"{name}: {proc.name} finished with a pending "
                        f"receive (source={recv.source}, tag={recv.tag}) "
                        "still registered — irecv never awaited or "
                        "cancelled")
        # open rounds held by finished tasks
        for rnd in state.rounds.open.values():
            if rnd.doom is not None:
                continue
            for proc, arrived_at in zip(rnd.members, rnd.times):
                task = getattr(proc, "task", None)
                if arrived_at is not None and task is not None \
                        and task.state in _FINISHED_CLEAN:
                    report.errors.append(
                        f"{name}: {proc.name} finished inside open "
                        f"collective '{rnd.op}' — the round can never "
                        "complete for the remaining members")
        # undelivered messages
        n_posted = sum(len(q) for q in state.board.posted.values())
        if n_posted:
            report.warnings.append(
                f"{name}: {n_posted} message(s) posted but never received")
        # zombie communicator state
        if state.procs and all(p.dead for p in state.procs):
            report.warnings.append(
                f"{name}: every member is dead but the communicator still "
                "holds state (missing free())")
    return report
