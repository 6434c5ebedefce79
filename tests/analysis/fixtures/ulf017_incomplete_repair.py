"""ULF017: a survivor waits on a repair phase no live rank will enter.

After shrinking, the new root drains "straggler" messages that no
surviving rank ever sends: the root blocks in ``recv`` while everyone
else blocks in the closing barrier that includes the root — a deadlock
reachable only under failure, invisible to trace replay of clean runs.

The second pair is the shape of every shipped repair loop's probe: the
helper returns from *inside* its ``try``.  Its handler ends with it, so
the solve segment after a clean probe is on its own: unguarded, the
survivor's failure escapes every handler.
"""


async def drain_stragglers(alive):
    if alive.rank == 0:
        leftover = await alive.recv(source=1, tag=7)
        return leftover
    return None


# repro: protocol ranks=3 failures=1
async def stranded_wait(ctx, world):
    try:
        await world.halo()
    except MPIError:
        world.revoke()
    alive = await world.shrink()
    if failed_count(world) > 0:
        await drain_stragglers(alive)  # BAD
    await alive.barrier()


# repro: protocol ranks=3 failures=1
async def counted_wait(ctx, world):
    try:
        await world.halo()
    except MPIError:
        world.revoke()
    alive = await world.shrink()
    if failed_count(world) > 0:
        note = await alive.allgather(1)
        del note
    await alive.barrier()


async def probe(comm):
    try:
        await comm.barrier()
        return True
    except MPIError:
        return False


# repro: protocol ranks=2 failures=1
async def probed_then_exposed(ctx, world):
    ok = await probe(world)
    if ok:
        await world.halo()  # BAD


# repro: protocol ranks=2 failures=1
async def probed_then_guarded(ctx, world):
    ok = await probe(world)
    if ok:
        try:
            await world.halo()
        except MPIError:
            world.revoke()
