"""Replay of ``tests/mpi/golden/collectives.json`` on the one round mechanism.

The goldens were recorded on the per-rank event path of the last commit that
had two collective substrates (see ``golden/record.py``).  Every scenario
must reproduce exactly: values, virtual times, exception messages and
delivery times, ``events_processed``, collective counters, tracer lines and
whole-run ``RunMetrics``.

The retired run-it-twice tests of ``test_batch_property.py`` live on here:
``mixed_collective_script[ideal|opl]`` -> ``mixed-ideal``/``mixed-opl``,
``numpy_allreduce`` -> ``numpy-allreduce``, ``bcast_aliasing`` ->
``bcast-aliasing``, ``single_rank_communicator`` -> ``single-rank``,
``scatter_length_error`` -> ``scatter-length-error``, ``kill_mid_round`` ->
``kill-mid-round``, ``rounds_after_failure`` -> ``rounds-after-failure``,
``solver_run_metrics[AC|CR-1d|2d]`` -> runs ``*-respawn-*-quiet``,
``recovery_sweep_metrics[AC|CR-0..2]`` -> runs ``*-respawn-1d-seed0..2``;
the three exchange programs are ``ring-ideal``/``ring-opl``,
``exchange-dead-neighbour`` and ``exchange-kill-mid-flight``.
"""

import json

import pytest

from repro.machine.presets import OPL
from repro.mpi.comm import CommState

from ..conftest import run_ranks
from .golden.record import (GOLDEN_PATH, kill_mid_round, program_scenarios,
                            run_program, run_solver, survivor_op)

GOLDEN = json.loads(GOLDEN_PATH.read_text())
PROGRAMS = program_scenarios()


def test_every_golden_has_a_scenario():
    assert sorted(GOLDEN["programs"]) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", sorted(GOLDEN["programs"]))
def test_program_matches_golden(name):
    assert PROGRAMS[name]() == GOLDEN["programs"][name]


def _replay(name, **kw):
    code, mode, decomposition, _plan = name.split("-")
    golden = GOLDEN["runs"][name]
    kills = [(rank, float.fromhex(at)) for rank, at in golden["kills"]]
    return run_solver(code, mode, decomposition, kills,
                      **golden.get("config", {}), **kw)


@pytest.mark.parametrize("name", sorted(GOLDEN["runs"]))
def test_run_matches_golden(name):
    assert _replay(name) == GOLDEN["runs"][name]


@pytest.mark.parametrize("name", sorted(GOLDEN["runs"]))
def test_traced_run_returns_the_untraced_metrics(name):
    """A tracer changes what is recorded, not what runs — except that a
    healthy group steps rank by rank instead of as one co-simulated segment
    (more wake-ups for the same virtual-time program).  The traced
    run is the per-message oracle of every golden (the 2d ones have one-row
    process grids, which co-simulate like the 1d rings they are)."""
    traced, golden = _replay(name, traced=True), GOLDEN["runs"][name]
    assert traced.pop("events") >= golden["events"]
    assert traced == {k: v for k, v in golden.items() if k != "events"}


# ----------------------------------------------------------------------
# regression assertions for the fixes that rode along with the merge
# ----------------------------------------------------------------------
def test_doomed_rounds_are_dropped_once_every_member_is_accounted_for():
    """The batch substrate's doomed map was never pruned; the one table
    drops a doomed round once every member has arrived or died (the spec
    test asserts the same on every random scenario)."""
    results, uni = run_ranks(6, kill_mid_round, machine=OPL,
                             kills=((3, 0.4),), raise_task_failures=False)
    assert any(entry[0] == "err" for log in results if log for entry in log)
    assert not uni.jobs[0].world_state.rounds.open


def test_n_failed_is_the_maintained_count(monkeypatch):
    """``agree``/``shrink`` price themselves by ``n_failed()`` on every
    call: it reads the maintained dead-rank set (an O(size) scan per call
    made a round quadratic — ``benchmarks/test_collective_scaling.py``
    guards the cost) and must agree with a scan whenever it is asked."""
    seen = []
    n_failed = CommState.n_failed

    def checked(self):
        seen.append(n_failed(self))
        assert seen[-1] == sum(p.dead for p in self.procs)
        return seen[-1]

    monkeypatch.setattr(CommState, "n_failed", checked)
    run_program(5, survivor_op("agree"), kills=((1, 0.2), (3, 0.25)))
    assert 0 in seen and 2 in seen
