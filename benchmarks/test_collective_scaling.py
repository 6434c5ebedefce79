"""Collective-round scaling guard: a round must cost O(members).

Not a paper figure — the regression guard for the one collective
mechanism (``repro.mpi.collectives``).  The guards are host-independent:
each compares the wall time per rank-round at 1024 ranks with the same
program at 64 ranks.  A per-arrival scan over the members (what the
retired per-rank rendezvous did, and what ``agree`` paid until the two
substrates were merged) makes a round quadratic and the ratio ~16; a
linear round keeps it near 1.
"""

import time

import pytest

from repro.machine.presets import IDEAL
from repro.mpi import Universe
from repro.mpi.tracing import Tracer

RANK_ROUNDS = 16384     # per measurement, so both sizes do the same work
SMALL, LARGE = 64, 1024
MAX_RATIO = 2.5


def collective_run(op: str, n_ranks: int, traced: bool = False):
    rounds = RANK_ROUNDS // n_ranks

    async def main(ctx):
        comm = ctx.comm
        total = 0
        for _ in range(rounds):
            if op == "allreduce":
                total = await comm.allreduce(1.0)
            else:
                total = await comm.agree(1)
        return total

    uni = Universe(IDEAL)
    if traced:
        uni.tracer = Tracer()
    job = uni.launch(n_ranks, main)
    uni.run()
    assert uni.stats.collectives[op] == n_ranks * rounds
    assert job.results() == [float(n_ranks) if op == "allreduce" else 1] \
        * n_ranks
    return uni


def seconds_per_rank_round(op, n_ranks, traced, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        collective_run(op, n_ranks, traced)
        best = min(best, time.perf_counter() - t0)
    return best / RANK_ROUNDS


@pytest.mark.benchmark(group="substrate")
@pytest.mark.parametrize("op,traced", [("allreduce", False),
                                       ("agree", False),
                                       ("allreduce", True)],
                         ids=["allreduce", "agree", "allreduce-traced"])
def test_round_cost_is_linear_in_members(benchmark, op, traced):
    uni = benchmark.pedantic(lambda: collective_run(op, LARGE, traced),
                             rounds=1, iterations=1, warmup_rounds=1)
    if traced:      # the traced communicator recorded every call
        assert len(uni.tracer.filter(kind="coll")) == RANK_ROUNDS
    small = seconds_per_rank_round(op, SMALL, traced)
    large = seconds_per_rank_round(op, LARGE, traced)
    print(f"\n{op}{' traced' if traced else ''}: "
          f"{1 / small:,.0f} rank-rounds/s at {SMALL} ranks, "
          f"{1 / large:,.0f} at {LARGE} -> {large / small:.2f}x per "
          f"rank-round")
    assert large <= MAX_RATIO * small
