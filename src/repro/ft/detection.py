"""Failure detection and identification — the paper's Figs. 4 and 6.

Process failures surface as :class:`ProcFailedError` from MPI calls (the
ULFM return-code mechanism).  A globally consistent list of the failed
ranks is then derived from the group difference between the broken
communicator and its shrunk successor — Fig. 6 verbatim:
``MPI_Group_compare`` → ``MPI_Group_difference`` →
``MPI_Group_translate_ranks``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..mpi.group import IDENT


def failed_procs_list(broken_comm, shrunk_comm) -> Tuple[List[int], int]:
    """Fig. 6: ranks (in ``broken_comm``) of the processes that failed.

    Pure group algebra — no communication — so it is globally consistent
    as long as every survivor passes the same shrunk communicator.
    """
    old_group = broken_comm.group
    shrink_group = shrunk_comm.group
    if old_group.compare(shrink_group) == IDENT:
        return [], 0
    failed_group = old_group.difference(shrink_group)
    n_failed = failed_group.size
    temp_ranks = list(range(n_failed))
    failed_ranks = failed_group.translate_ranks(temp_ranks, old_group)
    return failed_ranks, n_failed


def replaced_ranks(old_comm, new_comm) -> List[int]:
    """Ranks whose process differs between a communicator and its repaired
    successor (same size and rank order): the slots now held by re-spawned
    replacements."""
    old, new = old_comm.state.procs, new_comm.state.procs
    return [i for i in range(len(new)) if new[i] is not old[i]]


def make_error_handler(sink: Optional[Callable] = None):
    """Fig. 4: the communicator error handler.

    Acknowledges the locally-known failures and reads back the acked group
    (``OMPI_Comm_failure_ack`` / ``OMPI_Comm_failure_get_acked``).  The
    paper notes a ~10 ms delay is sometimes needed in the real beta; the
    simulator's failure knowledge is already consistent by the time an
    error is delivered, so no delay is modelled.

    ``sink(comm, failed_group, exc)`` is called with the acked group, for
    logging or assertions in tests.
    """

    def handler(comm, exc):
        comm.failure_ack()
        failed_group = comm.failure_get_acked()
        if sink is not None:
            sink(comm, failed_group, exc)

    return handler
