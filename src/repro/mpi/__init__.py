"""Simulated MPI with the ULFM fault-tolerance extensions.

The subset implemented covers everything the paper's recovery protocol
touches: point-to-point, the common collectives, groups, ``split``/``dup``,
``spawn_multiple``, intercommunicator ``merge``, plus the ULFM surface
(``revoke``, ``shrink``, ``agree``, ``failure_ack``/``failure_get_acked``)
with fail-stop process-failure semantics.
"""

from .comm import (BAND, LAND, MAX, MIN, PROD, SUM, CommHandle, CommState,
                   Request, Status, waitall)
from .stats import CommStats
from .errors import (ANY_SOURCE, ANY_TAG, MPI_ERR_COMM, MPI_ERR_PROC_FAILED,
                     MPI_ERR_REVOKED, MPI_SUCCESS, UNDEFINED, CommInvalidError,
                     MPIError, ProcFailedError, RankError, RevokedError)
from .group import IDENT, SIMILAR, UNEQUAL, Group
from .intercomm import IntercommHandle, IntercommState
from .process import Proc
from .universe import Job, RankContext, Universe, run_ranks

__all__ = [
    "Universe", "Job", "RankContext", "run_ranks",
    "CommHandle", "CommState", "IntercommHandle", "IntercommState",
    "Group", "Proc", "Request", "Status",
    "IDENT", "SIMILAR", "UNEQUAL",
    "ANY_SOURCE", "ANY_TAG", "UNDEFINED",
    "MPI_SUCCESS", "MPI_ERR_COMM", "MPI_ERR_PROC_FAILED", "MPI_ERR_REVOKED",
    "MPIError", "ProcFailedError", "RevokedError", "CommInvalidError",
    "RankError",
    "SUM", "PROD", "MAX", "MIN", "LAND", "BAND",
    "waitall",
    "CommStats",
]
