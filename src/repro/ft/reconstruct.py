"""Communicator reconstruction — the paper's Figs. 2, 3, 5 and 7.

``communicator_reconstruct`` is the retry loop of Fig. 3: parents probe for
failures with a barrier, repair on error; re-spawned children synchronise,
merge into the parents' repaired communicator, learn their old rank and
re-order — after which *every* process holds a communicator of the original
size with the original rank distribution, and children convert themselves
into parents so that failures *during* recovery restart the loop.

``repair_comm`` is Fig. 5: revoke → shrink → identify failed ranks →
re-spawn them on the hosts they occupied before the failure (preserving
load balance) → merge → distribute old ranks → split with the keys of
Fig. 7.

Every step runs inside a ``ctx.span(...)``; the spans are the Fig. 8 /
Table I clock (``RunMetrics`` reads the reporting rank's span totals).  A
:class:`ReconstructTimers` keeps the failure record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..mpi.comm import CommHandle
from ..mpi.errors import MPIError
from .detection import failed_procs_list, make_error_handler

#: tag used to ship old ranks to re-spawned processes (Fig. 3 l.23, Fig. 5 l.22-23)
MERGE_TAG = 4242

#: placement policies for re-spawned processes
PLACE_SAME_HOST = "same-host"   # the paper's policy (load balance preserved)
PLACE_SPARE = "spare"           # the paper's future-work policy (node failures)
PLACE_FIRST_FIT = "first-fit"   # naive policy, for the placement ablation


@dataclass
class ReconstructTimers:
    """The failure record of one rank's reconstructions (Fig. 8 / Table I
    times are the rank's spans, not fields here)."""

    iterations: int = 0
    failed_ranks: List[int] = field(default_factory=list)


class PlacementError(RuntimeError):
    """No host can take a replacement under the requested placement policy."""


def select_rank_key(mpi_rank: int, shrinked_group_size: int,
                    failed_ranks: Sequence[int], total_procs: int) -> int:
    """Fig. 7: the split key that restores a survivor's original rank.

    Survivor ``i`` of the shrunk communicator was the ``i``-th process of
    the original communicator *after removing the failed ranks*, so its key
    is the ``i``-th entry of that surviving-rank list.
    """
    failed = set(failed_ranks)
    shrink_merge_list = [i for i in range(total_procs) if i not in failed]
    if not (0 <= mpi_rank < shrinked_group_size):
        raise ValueError(
            f"rank {mpi_rank} outside shrunk communicator of size "
            f"{shrinked_group_size}")
    return shrink_merge_list[mpi_rank]


def _placement_hosts(universe, failed_ranks: Sequence[int],
                     placement: str) -> List[str]:
    """Fig. 5 l.5-12: host names on which to re-spawn the failed ranks.

    Capacity-based policies must see the slots already promised to earlier
    replacements in the same repair, hence the ``pending`` ledger.

    Each policy has a *deterministic* fallback chain, tried in hostfile
    order, and raises :class:`PlacementError` (never a bare IndexError)
    once the chain is exhausted:

    * ``same-host`` — the failed rank's original host (Fig. 5), else the
      spare hosts in order, else the first regular host with capacity;
    * ``spare`` — the spare hosts in order, else the first regular host
      with capacity;
    * ``first-fit`` — the first regular host with capacity, else the
      spare hosts in order.
    """
    hostfile = universe.hostfile
    slots = hostfile[0].slots
    pending: dict = {}

    def fits(h) -> bool:
        return h is not None and h.free_slots - pending.get(h.name, 0) > 0

    def first_available(hosts):
        for h in hosts:
            if fits(h):
                return h
        return None

    def preferred_host(rank):
        try:
            return hostfile.host_of_rank(rank, slots)
        except IndexError:
            return None  # rank maps past the regular hosts: fall back

    names = []
    for rank in failed_ranks:
        if placement == PLACE_SAME_HOST:
            candidates = [preferred_host(rank),
                          first_available(hostfile.spare_hosts),
                          first_available(hostfile.regular_hosts)]
        elif placement == PLACE_SPARE:
            candidates = [first_available(hostfile.spare_hosts),
                          first_available(hostfile.regular_hosts)]
        elif placement == PLACE_FIRST_FIT:
            candidates = [first_available(hostfile.regular_hosts),
                          first_available(hostfile.spare_hosts)]
        else:
            raise ValueError(f"unknown placement policy {placement!r}")
        host = next((h for h in candidates if fits(h)), None)
        if host is None:
            taken = {h.name: h.free_slots - pending.get(h.name, 0)
                     for h in hostfile}
            raise PlacementError(
                f"no host has a free slot for replacement of rank {rank} "
                f"under {placement!r} placement (free slots: {taken})")
        pending[host.name] = pending.get(host.name, 0) + 1
        names.append(host.name)
    return names


async def repair_comm(ctx, broken_comm, *, entry: Callable, argv: Sequence = (),
                      placement: str = PLACE_SAME_HOST,
                      timers: Optional[ReconstructTimers] = None,
                      max_attempts: int = 10,
                      rank_map: Optional[Sequence[int]] = None) -> CommHandle:
    """Fig. 5: repair a broken communicator (parent side).

    Returns the repaired communicator with original size and rank order.
    ``entry`` is the application entry point the children execute (the
    paper re-launches ``./ApplicationName`` with the original argv).

    ``rank_map`` maps ranks of ``broken_comm`` to world ranks; the
    non-collective repair mode passes a sub-grid communicator here, and the
    map keeps the Fig. 5 host arithmetic (and the recorded failed-rank
    history) in world terms.  ``None`` means the communicator *is* the
    world.

    Extension beyond the paper's pseudocode: if a further failure lands
    *during* the repair (a spawn/merge/split participant dies), the whole
    attempt is retried from revoke+shrink — the new shrink also excludes
    the newly dead, and replacements are spawned for every failed rank,
    including dead replacements.  Children of an aborted attempt observe
    the same error and exit (see :func:`communicator_reconstruct`).
    """
    t = timers or ReconstructTimers()

    for _attempt in range(max_attempts):
        with ctx.span("detect", attempt=_attempt):
            # the failed-process list is derived *from* the shrunk
            # communicator, so its cost includes the shrink (Fig. 8a)
            broken_comm.revoke()                             # Fig. 5 l.2
            with ctx.span("shrink", attempt=_attempt):
                shrunk = await broken_comm.shrink()          # Fig. 5 l.3
            failed_ranks, n_failed = failed_procs_list(broken_comm, shrunk)
        for r in failed_ranks:  # accumulate across repeated repairs
            w = rank_map[r] if rank_map is not None else r
            if w not in t.failed_ranks:
                t.failed_ranks.append(w)

        placed = [rank_map[r] for r in failed_ranks] \
            if rank_map is not None else failed_ranks
        host_names = _placement_hosts(ctx.universe, placed, placement)

        # a span closes on error too, so an attempt aborted by a further
        # failure still counts the time its in-flight phase spent
        try:
            with ctx.span("spawn", attempt=_attempt):
                inter = await shrunk.spawn_multiple(         # Fig. 5 l.13
                    n_failed, entry, argv, host_names=host_names)
            with ctx.span("merge", attempt=_attempt):
                unordered = await inter.merge(high=False)    # Fig. 5 l.14
            with ctx.span("agree", attempt=_attempt):
                await inter.agree(1)                         # Fig. 5 l.15
            with ctx.span("merge", attempt=_attempt):
                shrunk_size = shrunk.size
                # Fig. 5 l.21-23: rank 0 tells each child its old rank
                if unordered.rank == 0:
                    for i, old_rank in enumerate(failed_ranks):
                        await unordered.send(old_rank, dest=shrunk_size + i,
                                             tag=MERGE_TAG)
                # Fig. 5 l.24-25: re-order so survivors regain original ranks
                key = select_rank_key(unordered.rank, shrunk_size,
                                      failed_ranks, broken_comm.size)
                repaired = await unordered.split(0, key)
            return repaired
        except MPIError:
            continue  # another failure mid-repair: retry from revoke
    raise RuntimeError(f"communicator repair failed {max_attempts} times")


async def communicator_reconstruct(ctx, my_world, *, entry: Callable,
                                   argv: Sequence = (),
                                   placement: str = PLACE_SAME_HOST,
                                   timers: Optional[ReconstructTimers] = None
                                   ) -> CommHandle:
    """Fig. 3: the full reconstruction loop, valid on both parents and
    children.

    Survivors pass their (possibly broken) world communicator; re-spawned
    processes pass anything (their parent intercommunicator drives the
    child branch).  Loops until a barrier on the reconstructed communicator
    succeeds, so failures occurring *during* recovery are also handled.
    """
    t = timers or ReconstructTimers()
    handler = make_error_handler()
    parent = ctx.get_parent()                                # Fig. 3 l.3
    reconstructed = my_world
    iter_counter = 0

    while True:
        failure = False
        if parent is None:                                   # parent branch
            if iter_counter == 0:
                reconstructed = my_world                     # Fig. 3 l.8
            reconstructed.set_errhandler(handler)            # Fig. 3 l.11
            with ctx.span("agree"):
                await reconstructed.agree(1)                 # Fig. 3 l.12
            try:
                await reconstructed.barrier()                # Fig. 3 l.13
            except MPIError:
                with ctx.span("reconstruct"):
                    reconstructed = await repair_comm(       # Fig. 3 l.15
                        ctx, reconstructed, entry=entry, argv=argv,
                        placement=placement, timers=t)
                failure = True
        else:                                                # child branch
            parent.set_errhandler(handler)                   # Fig. 3 l.20
            try:
                with ctx.span("agree"):
                    await parent.agree(1)                    # Fig. 3 l.21
                with ctx.span("merge"):
                    unordered = await parent.merge(high=True)  # Fig. 3 l.22
                    old_rank = await unordered.recv(source=0, tag=MERGE_TAG)
                    reconstructed = await unordered.split(0, old_rank)  # l.24
            except MPIError:
                # the repair attempt we belong to was aborted (another
                # failure); the parents retry with fresh replacements and
                # this orphan must exit
                return None
            failure = True                                   # Fig. 3 l.25-26
            parent = None                                    # Fig. 3 l.32
            ctx.set_parent_null()  # permanent: later detection rounds must
            # take the parent branch (Fig. 3's child-to-parent conversion)

        iter_counter += 1
        t.iterations = iter_counter
        if not failure:
            return reconstructed
