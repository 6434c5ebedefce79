"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.machine.presets import IDEAL, OPL
from repro.mpi.universe import Universe


def run_ranks(n, entry, *, machine=IDEAL, argv=(), kills=(), hostfile=None,
              raise_task_failures=True):
    """Run ``entry(ctx)`` on ``n`` ranks; returns (results, universe).

    ``kills`` is a sequence of (rank, time) fail-stop injections.
    """
    uni = Universe(machine, hostfile=hostfile)
    job = uni.launch(n, entry, argv)
    for rank, at in kills:
        uni.kill_rank(job, rank, at=at)
    uni.run(raise_task_failures=raise_task_failures)
    return job.results(), uni


@pytest.fixture
def ideal():
    return IDEAL


@pytest.fixture
def opl():
    return OPL
