"""Deliberately broken module: every ULF rule must fire on this file.

Used by the lint acceptance tests — do not "fix" it.
"""

import random
import time
from multiprocessing import Pool

_runs = 0


async def swallow_failures(comm):
    try:
        await comm.barrier()
    except Exception:          # ULF001: swallows ProcFailedError
        pass


async def wall_clock_and_rng(ctx):
    started = time.time()      # ULF002: wall clock in simulated code
    jitter = random.random()   # ULF002: global unseeded RNG
    rng = random.Random()      # ULF002: unseeded Random instance
    return started + jitter + rng.random()


async def leak_communicator(comm):
    await comm.dup()           # ULF003: new communicator discarded
    await comm.spawn_multiple(2, None)  # ULF003: intercommunicator discarded


async def retry_inside_handler(comm):
    try:
        await comm.allreduce(1)
    except MPIError:
        await comm.barrier()   # ULF004: blocking collective in handler


async def torn_checkpoint(ctx, disk, solver):
    await write_checkpoint(ctx, disk, 0, 0, solver, None)  # ULF005


async def lopsided_barrier(comm):
    if comm.rank == 0:
        await comm.barrier()   # ULF006: only rank 0 reaches this


async def use_after_revoke(comm):
    comm.revoke()
    await comm.barrier()       # ULF007: collective on revoked comm


async def double_free(comm):
    comm.free()
    comm.free()                # ULF008: communicator already freed


async def tags_never_match(comm):
    if comm.rank == 0:
        await comm.send(b"x", dest=1, tag=11)
    else:
        await comm.recv(source=0, tag=22)  # ULF009: 22 never sent


async def _write_helper(ctx, disk, solver):
    # not flagged here: the obligation falls on the (unsynchronised) caller
    await write_checkpoint(ctx, disk, 0, 0, solver, None)


async def delegated_torn_checkpoint(ctx, disk, solver):
    # ULF010: the helper writes a checkpoint; no sync precedes this call
    await _write_helper(ctx, disk, solver)


def mutate_shared_scheme(n):
    scheme = cached_scheme(n, 4)
    scheme.grids.append(None)      # ULF011: mutates a cached object


def cached_run(cfg):  # repro: cacheable
    global _runs                   # ULF012: global write in cacheable entry
    _runs = _runs + 1
    return cfg


class SchemeHolder:
    def adopt(self, n):
        self.scheme = cached_scheme(n, 4)  # ULF013: shared ref escapes


def unordered_total(xs):
    total = 0.0
    for x in set(xs):              # ULF014: set order feeds the sum
        total += x
    return total


def run_in_pool(points):
    with Pool() as pool:
        return pool.map(lambda p: p * 2, points)  # ULF015: lambda payload


# --- protocol-model rules (annotated functions are model-checked) ---------

async def _probe_root(comm):
    await comm.barrier()


async def _probe_other(comm):
    await comm.bcast(0, root=0)


def _declare_failure(comm):
    comm.revoke()


# repro: protocol ranks=3 failures=1
async def model_divergent_probe(ctx, world):
    try:
        await world.halo()
    except MPIError:
        world.revoke()
    alive = await world.shrink()
    if alive.rank == 0:
        await _probe_root(alive)       # ULF016: barrier on rank 0 ...
    else:
        await _probe_other(alive)      # ... bcast on the others


# repro: protocol ranks=3 failures=1
async def model_stranded_wait(ctx, world):
    try:
        await world.halo()
    except MPIError:
        world.revoke()
    alive = await world.shrink()
    if failed_count(world) > 0:
        if alive.rank == 0:
            await alive.recv(source=1, tag=7)  # ULF017: rank 1 may be dead
    await alive.barrier()


# repro: protocol ranks=3 failures=1
async def model_skewed_epochs(ctx, world):
    ckpt_write(0, 1)
    if world.rank == 0:
        ckpt_write(0, 2)
    try:
        await world.halo()
    except MPIError:
        world.revoke()
    alive = await world.shrink()
    if failed_count(world) > 0:
        ckpt_restore(0)                # ULF018: epoch depends on the rank
    await alive.barrier()


# repro: protocol ranks=3 failures=1 child=_model_eager_child
async def model_impatient_parent(ctx, world):
    try:
        await world.halo()
    except MPIError:
        world.revoke()
    alive = await world.shrink()
    missing = failed_count(world)
    if missing > 0:
        inter = await alive.spawn_multiple(missing, _model_eager_child, ())
        merged = await inter.merge(high=True)  # ULF019: both sides high
        await merged.barrier()
        return
    await alive.barrier()


async def _model_eager_child(ctx):
    parent = ctx.get_parent()
    merged = await parent.merge(high=True)     # ULF019: both sides high
    await merged.barrier()


# repro: protocol ranks=2 failures=1
async def model_eager_rebroadcast(ctx, world):
    try:
        await world.halo()
    except MPIError:
        _declare_failure(world)
    await world.bcast(0, root=0)       # ULF020: collective after revoke
    await world.barrier()
