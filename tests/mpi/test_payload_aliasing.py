"""Value semantics vs zero-copy ownership transfer of numpy payloads.

``send``/``isend`` default to MPI value semantics: the payload is cloned at
the call, so later sender-side mutation is invisible to the receiver.
``copy=False`` transfers ownership instead — nothing is cloned, the
receiver gets a read-only view of the sender's memory, and the caller
promises not to touch the buffer again (the halo-exchange pattern: send a
freshly built ``.copy()`` of a boundary row).
"""

import numpy as np
import pytest

from repro.machine.presets import IDEAL
from repro.mpi import Universe


def _run(entry, n=2):
    uni = Universe(IDEAL)
    job = uni.launch(n, entry)
    uni.run()
    return job.results()


def test_default_isend_copies_at_send_time():
    async def main(ctx):
        if ctx.rank == 0:
            buf = np.arange(4.0)
            req = ctx.comm.isend(buf, dest=1, tag=0)
            buf[:] = -1.0  # mutate after isend: receiver must not see this
            await req.wait()
        else:
            got = await ctx.comm.recv(source=0, tag=0)
            return got.tolist()

    assert _run(main)[1] == [0.0, 1.0, 2.0, 3.0]


def test_copy_false_with_private_copy_preserves_send_time_contents():
    """The halo-exchange pattern: a fresh ``.copy()`` sent with
    ``copy=False`` is safe even if the original buffer keeps changing."""
    async def main(ctx):
        if ctx.rank == 0:
            buf = np.arange(4.0)
            req = ctx.comm.isend(buf.copy(), dest=1, tag=0, copy=False)
            buf[:] = -1.0  # only the original changes, not the sent copy
            await req.wait()
        else:
            got = await ctx.comm.recv(source=0, tag=0)
            return got.tolist()

    assert _run(main)[1] == [0.0, 1.0, 2.0, 3.0]


def test_copy_false_aliases_the_sender_buffer():
    """Pin the ownership-transfer contract: with ``copy=False`` and no
    private copy, sender-side mutation after ``isend`` IS observed by the
    receiver, and the received view is read-only."""
    async def main(ctx):
        if ctx.rank == 0:
            buf = np.arange(4.0)
            req = ctx.comm.isend(buf, dest=1, tag=0, copy=False)
            buf[:] = -1.0  # contract violation: visible to the receiver
            await req.wait()
        else:
            got = await ctx.comm.recv(source=0, tag=0)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 99.0
            return got.tolist()

    assert _run(main)[1] == [-1.0, -1.0, -1.0, -1.0]


def test_blocking_send_copy_false_gives_read_only_view():
    async def main(ctx):
        if ctx.rank == 0:
            await ctx.comm.send(np.ones(3), dest=1, tag=7, copy=False)
        else:
            got = await ctx.comm.recv(source=0, tag=7)
            assert not got.flags.writeable
            return float(got.sum())

    assert _run(main)[1] == 3.0


def test_copy_false_freezes_arrays_inside_containers():
    async def main(ctx):
        if ctx.rank == 0:
            payload = {"row": np.arange(3.0), "meta": (1, np.zeros(2))}
            await ctx.comm.send(payload, dest=1, tag=0, copy=False)
        else:
            got = await ctx.comm.recv(source=0, tag=0)
            assert not got["row"].flags.writeable
            assert not got["meta"][1].flags.writeable
            return got["row"].tolist()

    assert _run(main)[1] == [0.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# allgather: one fresh list per rank, clones only for what can change
# ---------------------------------------------------------------------------
@pytest.fixture
def clone_calls(monkeypatch):
    """Counts the allgather finish rule's ``clone_payload`` calls."""
    from repro.mpi import collectives

    calls = []
    real = collectives.clone_payload

    def counting(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(collectives, "clone_payload", counting)
    return calls


FROZEN = [7, "two", (3, ("x", b"y"), 1.5), (None, True, frozenset({4}))]


def test_frozen_allgather_contributions_are_never_cloned(clone_calls):
    async def main(ctx):
        return await ctx.comm.allgather(FROZEN[ctx.rank])

    results = _run(main, n=4)
    assert all(got == FROZEN for got in results)
    assert clone_calls == []


def test_allgather_gives_every_rank_its_own_list():
    async def main(ctx):
        got = await ctx.comm.allgather((ctx.rank, "tag"))
        if ctx.rank == 0:
            got[1] = "mutated"
            got.append("extra")
        await ctx.comm.barrier()
        return got

    results = _run(main, n=3)
    assert results[0] == [(0, "tag"), "mutated", (2, "tag"), "extra"]
    assert results[1] == results[2] == [(0, "tag"), (1, "tag"), (2, "tag")]
    assert len({id(got) for got in results}) == 3


@pytest.mark.parametrize("mutable", [
    lambda r: np.full(2, float(r)),
    lambda r: (r, [r, r]),
], ids=["ndarray", "list-in-tuple"])
def test_mutable_allgather_contributions_cloned_per_receiver(clone_calls,
                                                             mutable):
    n = 3

    async def main(ctx):
        mine = mutable(ctx.rank)
        got = await ctx.comm.allgather(mine if ctx.rank else 5)
        assert got[ctx.rank] is not mine or ctx.rank == 0
        return got

    results = _run(main, n=n)
    assert len(clone_calls) == n * (n - 1)     # every receiver, every slot
    for slot in range(1, n):
        copies = [got[slot] for got in results]
        assert len({id(c) for c in copies}) == n
        if isinstance(copies[0], tuple):
            assert len({id(c[1]) for c in copies}) == n
            copies[0][1].append("changed")
            assert copies[1][1] == [slot, slot]
        else:
            copies[0][:] = -1.0
            assert copies[1].tolist() == [float(slot)] * 2
