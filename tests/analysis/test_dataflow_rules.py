"""Acceptance tests for the dataflow and protocol-model rules (ULF005-ULF020).

Each fixture file pairs violating functions (lines tagged ``# BAD``)
with corrected variants.  The contract per rule is exact: the rule fires
on every ``# BAD`` line of its fixture (true positives) and nowhere else
in that file (no false positives on the corrected variants).
"""

from pathlib import Path

import pytest

from repro.analysis import lint_file
from repro.analysis.linter import SEVERITY, RULES

FIXTURES = Path(__file__).parent / "fixtures"

RULE_FIXTURES = {
    "ULF006": FIXTURES / "ulf006_collective_divergence.py",
    "ULF007": FIXTURES / "ulf007_use_after_revoke.py",
    "ULF008": FIXTURES / "ulf008_double_free.py",
    "ULF009": FIXTURES / "ulf009_tag_mismatch.py",
    "ULF010": FIXTURES / "ulf010_interprocedural_ckpt.py",
    "ULF011": FIXTURES / "ulf011_frozen_state.py",
    "ULF012": FIXTURES / "ulf012_purity.py",
    "ULF013": FIXTURES / "ulf013_escape.py",
    "ULF014": FIXTURES / "ulf014_nondeterminism.py",
    "ULF015": FIXTURES / "ulf015_pool_pickling.py",
    # protocol-model rules: the fixtures carry `# repro: protocol`
    # annotations, so lint_file runs extraction + model checking on them
    "ULF016": FIXTURES / "ulf016_collective_divergence_failure.py",
    "ULF017": FIXTURES / "ulf017_incomplete_repair.py",
    "ULF018": FIXTURES / "ulf018_epoch_inconsistency.py",
    "ULF019": FIXTURES / "ulf019_spawn_merge_mismatch.py",
    "ULF020": FIXTURES / "ulf020_revoke_gap.py",
}


def bad_lines(path: Path):
    return {i for i, line in enumerate(path.read_text().splitlines(), 1)
            if "# BAD" in line}


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_rule_fires_exactly_on_bad_lines(rule):
    path = RULE_FIXTURES[rule]
    expected = bad_lines(path)
    assert expected, f"fixture {path.name} has no # BAD markers"
    violations = lint_file(path)
    assert {v.rule for v in violations} == {rule}, \
        f"{path.name} should only ever trip {rule}: {violations}"
    assert {v.line for v in violations} == expected


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_rule_is_catalogued(rule):
    assert rule in RULES
    assert SEVERITY[rule] in ("error", "warning")


def test_flow_sensitive_ulf005_partial_sync():
    # a sync on only one path no longer discharges the obligation
    src = (
        "async def ckpt(ctx, comm, disk, solver, fast):\n"
        "    if fast:\n"
        "        await comm.barrier()\n"
        "    await write_checkpoint(ctx, disk, 0, 0, solver, None)\n"
    )
    assert [v.rule for v in lint_file("x.py", source=src)] == ["ULF005"]


def test_flow_sensitive_ulf005_synced_on_all_paths():
    src = (
        "async def ckpt(ctx, comm, disk, solver, fast):\n"
        "    if fast:\n"
        "        await comm.barrier()\n"
        "    else:\n"
        "        await comm.allreduce(1)\n"
        "    await write_checkpoint(ctx, disk, 0, 0, solver, None)\n"
    )
    assert lint_file("x.py", source=src) == []


def test_ulf006_catches_loop_wrapped_divergence():
    src = (
        "async def sweep(comm, steps):\n"
        "    for _ in range(steps):\n"
        "        if comm.rank == 0:\n"
        "            await comm.barrier()\n"
    )
    assert [v.rule for v in lint_file("x.py", source=src)] == ["ULF006"]


@pytest.mark.parametrize("tag", ["-2", "any_tag"])
def test_ulf009_a_wildcard_receive_tag_matches_every_send(tag):
    # the simulator's recv(tag=-2) is ANY_TAG and receives tag 7, whether
    # the tag is spelt out or folded from a local
    src = (
        "async def f(world):\n"
        "    any_tag = -2\n"
        "    if world.rank == 0:\n"
        f"        await world.recv(source=1, tag={tag})\n"
        "    else:\n"
        "        await world.send(1, dest=0, tag=7)\n"
    )
    assert lint_file("x.py", source=src) == []


def test_ulf007_message_names_the_revoked_comm():
    src = (
        "async def f(comm):\n"
        "    comm.revoke()\n"
        "    await comm.barrier()\n"
    )
    (v,) = lint_file("x.py", source=src)
    assert v.rule == "ULF007"
    assert "comm" in v.message and "revoke" in v.message.lower()


# One shared-reference taint decides ULF011 and ULF013: an attribute of a
# shared object is shared, and a module-local provider is a source for
# both rules.  Each BAD shape went unreported while the two rules were
# separate taints; each twin must stay clean.
SHARED_REF_CASES = {
    "attribute_of_shared_stored_on_self": ((
        "from repro.core.layout import layout_for\n"
        "class Holder:\n"
        "    def __init__(self, scheme, mode, procs):\n"
        "        layout = layout_for(scheme, mode, procs)\n"
        "        self.owners = layout.owners\n"
    ), [("ULF013", 5)]),
    "alias_then_store_on_self": ((
        "from repro.core.layout import layout_for\n"
        "class Holder:\n"
        "    def __init__(self, scheme, mode, procs):\n"
        "        layout = layout_for(scheme, mode, procs)\n"
        "        owners = layout.owners\n"
        "        self.owners = owners\n"
    ), [("ULF013", 6)]),
    "local_provider_result_mutated": ((
        "from repro.sparsegrid.index import cached_scheme\n"
        "def scheme_for(n, level):\n"
        "    return cached_scheme(n, level)\n"
        "def extend(n, level):\n"
        "    s = scheme_for(n, level)\n"
        "    s.grids.append(None)\n"
    ), [("ULF011", 6)]),
    "attribute_of_shared_returned": ((
        "from repro.core.layout import layout_for\n"
        "def owners_of(scheme, mode, procs):\n"
        "    layout = layout_for(scheme, mode, procs)\n"
        "    return layout.owners\n"
    ), []),
    "owned_copy_stored_on_self": ((
        "from repro.core.layout import layout_for\n"
        "class Holder:\n"
        "    def __init__(self, scheme, mode, procs):\n"
        "        layout = layout_for(scheme, mode, procs)\n"
        "        self.owners = layout.owners.copy()\n"
    ), []),
    "local_provider_result_read": ((
        "from repro.sparsegrid.index import cached_scheme\n"
        "def scheme_for(n, level):\n"
        "    return cached_scheme(n, level)\n"
        "def count(n, level):\n"
        "    s = scheme_for(n, level)\n"
        "    return len(s.grids)\n"
    ), []),
}


@pytest.mark.parametrize("case", sorted(SHARED_REF_CASES))
def test_shared_reference_taint(case):
    src, expected = SHARED_REF_CASES[case]
    assert [(v.rule, v.line) for v in lint_file("x.py", source=src)] \
        == expected
