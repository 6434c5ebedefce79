"""ULF007 fixture pair: operations on a possibly-revoked communicator.
Lines tagged "BAD" (as an end-of-line marker) must be flagged; everything else must stay
silent.  Used by ``tests/analysis/test_dataflow_rules.py``."""


async def use_after_revoke(comm):
    comm.revoke()
    return await comm.allreduce(1)  # BAD: comm is revoked


async def exchange_after_revoke(comm):
    comm.revoke()
    return await comm.exchange([(1, 0, b"x")], [(1, 0)])  # BAD: p2p raises


async def revoke_on_one_path(comm, broken):
    if broken:
        comm.revoke()
    await comm.barrier()  # BAD: may-revoked on the broken path


async def corrected_shrink_first(comm):
    comm.revoke()
    shrunk = await comm.shrink()  # shrink on a revoked comm is the idiom
    flag = await shrunk.agree(1)
    return flag, await shrunk.allreduce(1)


async def corrected_rebound_alias(comm):
    comm.revoke()
    comm = await comm.shrink()  # rebinding clears the revoked state
    return await comm.barrier()
