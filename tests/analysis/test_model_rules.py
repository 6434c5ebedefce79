"""Protocol-model rule integration (repro.analysis.model.rules).

Covers the lint hook (annotated functions model-checked inside
``lint_file``), the shipped-mode verifier (CR/RC/AC/SHRINK/NC
deadlock-free with the shipped ``repro.ft`` repair code inlined — which
the mutation test demonstrates), and error reporting.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_file
from repro.analysis.linter import RULES, SEVERITY
from repro.analysis.model import (MODEL_RULES, reconstruct_registry,
                                  verify_modes)
from repro.core import app
from repro.ft import recovery, strategy


def test_model_rules_are_catalogued_as_errors():
    for rule in ("ULF016", "ULF017", "ULF018", "ULF019", "ULF020"):
        assert rule in MODEL_RULES
        assert rule in RULES
        assert SEVERITY[rule] == "error"


@pytest.fixture
def shipped_reports(verify_reports):
    return verify_reports


def test_shipped_modes_are_deadlock_free(shipped_reports):
    assert {r.mode for r in shipped_reports} == \
        {"CR", "RC", "AC", "SHRINK", "NC"}
    for rep in shipped_reports:
        assert rep.ok, (rep.mode, [v.message for v in rep.result.violations])
        assert rep.result.states > 0
        assert rep.result.kills_explored >= 1  # single-failure injection ran


def test_mode_state_spaces_are_pinned(shipped_reports):
    """(product states, failure placements) per mode at the default 2x2
    world and budget 1.  Not a property anyone wants for its own sake:
    a move means the extractor, the checker or the shipped protocol
    changed what is explored, and the PR that moves it says why."""
    assert {r.mode: (r.result.states, r.result.kills_explored)
            for r in shipped_reports} == {
        "CR": (1395, 14), "RC": (627, 6), "AC": (627, 6),
        "SHRINK": (849, 14), "NC": (1085, 14)}      # 4 583 states in all


#: mutants that replace a line instead of deleting it
_REPLACEMENTS = {
    # the re-spawned child re-runs the segments before the agreed horizon
    "await self._segment_loop(targets, horizon)":
        "await self._segment_loop(targets)",
    # the nc recompute horizon is agreed on the world, not the grid
    "comm = app.grid_comm if grid_local else app.world": "comm = app.world",
}


@pytest.mark.parametrize("mode, line, rules", [
    # the replacement adopts a world nobody re-admitted it into
    ("NC", "await world.readmit(rank_map[i], rebuilt.state.procs[i])",
     {"ULF017"}),
    # the re-spawned child's join agree has no partner
    ("NC", "await grid.agree(1)", {"ULF017"}),
    # the retry loop re-probes the broken world until its budget runs out
    ("SHRINK", "world = shrunk", {"ULF017"}),
    ("CR", "await self._segment_loop(targets, horizon)", {"ULF017"}),
    ("NC", "comm = app.grid_comm if grid_local else app.world",
     {"ULF017"}),
])
def test_models_inline_the_shipped_repair_loops(mode, line, rules):
    """The models are the code ``core/app.py``, ``ft/strategy.py`` and
    ``ft/recovery.py`` ship: mutate one line of *their* text and the
    mode stops verifying."""
    (module,) = [m for m in (app, recovery, strategy)
                 if line in Path(m.__file__).read_text()]
    path = Path(module.__file__)
    shipped = path.read_text()
    assert shipped.count(line) == 1

    def verify(text):
        (report,) = verify_modes(
            [mode], registry=reconstruct_registry({path.name: text}))
        return report

    assert verify(shipped).ok
    mutant = verify(shipped.replace(line, _REPLACEMENTS.get(line, "pass")))
    assert {v.rule for v in mutant.result.violations} == rules


def test_models_carry_the_shipped_callees_communication(shipped_reports):
    """The extracted skeletons carry the shipped callees' communication:
    CR's restore agrees its steps over the grid and its combination
    gathers each grid; AC re-seeds lost grids with a world scatter."""
    def ops(mode):
        (report,) = [r for r in shipped_reports if r.mode == mode]
        return {(op.kind, op.comm) for op in report.source.model.main.ops()}

    grid = ("var", "app.grid_comm")
    assert {("allreduce", grid), ("gather", grid)} <= ops("CR")
    assert ("scatter", ("var", "app.world")) in ops("AC")


def test_mode_subset_and_case_insensitive():
    (rep,) = verify_modes(["cr"])
    assert rep.mode == "CR"


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        verify_modes(["XX"])


def test_lint_message_names_model_and_cli():
    src = '''
# repro: protocol ranks=2 failures=1
async def lonely(ctx, world):
    await world.halo()
    await world.barrier()
'''
    violations = lint_file("m.py", source=src)
    assert violations, "unguarded halo under failure must be flagged"
    v = violations[0]
    assert v.rule in MODEL_RULES
    assert "lonely" in v.message
    assert "verify-protocol" in v.message  # points at the timeline CLI


def test_unannotated_functions_not_model_checked():
    src = '''
async def lonely(ctx, world):
    await world.halo()
    await world.barrier()
'''
    assert [v for v in lint_file("m.py", source=src)
            if v.rule in MODEL_RULES] == []


def test_broken_annotation_degrades_to_ulf000():
    src = '''
# repro: protocol ranks=2 failures=1 child=missing_child
async def parent(ctx, world):
    await world.barrier()
'''
    violations = lint_file("m.py", source=src)
    assert [v.rule for v in violations] == ["ULF000"]


#: two-rank point-to-point models the simulator and the checker would read
#: differently, each with the simulator's reading
P2P_MODEL = """
# repro: protocol ranks=2 failures=0
async def p2p(ctx, world):
    if world.rank == 0:
        {zero}
    else:
        {one}
"""
REFUSED_P2P = {
    # IndexError in the checker; RankError in the simulator
    "source-out-of-range": ("await world.recv(source=5, tag=1)",
                            "await world.send(1, dest=0, tag=1)",
                            "recv source 5 is not a rank"),
    # ANY_SOURCE in the simulator, the last member in the checker
    "wildcard-source": ("await world.recv(source=-1, tag=1)",
                        "await world.send(1, dest=0, tag=1)",
                        "recv source -1 is not a rank"),
    # RankError in the simulator, the last member in the checker
    "negative-dest": ("await world.recv(source=1, tag=1)",
                      "await world.send(1, dest=-1, tag=1)",
                      "send dest -1 is not a rank"),
    # ANY_TAG in the simulator, a tag nobody sends in the checker
    "wildcard-tag": ("await world.recv(source=1, tag=-2)",
                     "await world.send(1, dest=0, tag=7)",
                     "recv tag -2 is a wildcard or no tag"),
    # ANY_TAG in the simulator, tag 0 in the checker
    "omitted-tag": ("await world.recv(source=1)",
                    "await world.send(1, dest=0, tag=7)",
                    "recv without a named source and tag"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_P2P))
def test_p2p_the_model_cannot_match_is_a_model_error(case):
    """A rank outside the communicator, a wildcard source or tag and an
    omitted receive tag are refused as ULF000, not a crash or a
    deadlock finding the code does not have."""
    zero, one, why = REFUSED_P2P[case]
    violations = lint_file("m.py", source=P2P_MODEL.format(zero=zero,
                                                           one=one))
    assert [v.rule for v in violations] == ["ULF000"]
    assert "protocol model check failed" in violations[0].message
    assert why in violations[0].message


def test_new_mode_skeletons_verify_as_a_subset():
    """The shrink-in-place and non-collective skeletons prove out on
    their own, over every single-failure placement."""
    shrink, nc = verify_modes(["SHRINK", "NC"])
    assert (shrink.mode, nc.mode) == ("SHRINK", "NC")
    for rep in (shrink, nc):
        assert rep.ok, (rep.mode,
                        [v.message for v in rep.result.violations])
        # one placement per killable model rank, all explored
        assert rep.result.kills_explored >= \
            rep.source.model.ranks - 1
