"""Protocol-skeleton extraction (repro.analysis.model.extract).

Exercises the source-to-IR translation: op recognition, helper
inlining with call-site line anchoring, bounded loops, static
try/except handlers, annotation discovery, and the real ft.reconstruct
registry.  Control flow is asserted as the checker observes it (rounds
completed, handler reached), not as instruction shapes.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.analysis.model.checker import ProtocolModel, check_model
from repro.analysis.model.extract import (ExtractError, build_module_env,
                                          extract_function,
                                          find_protocol_models,
                                          reconstruct_registry)
from repro.analysis.model.ir import FailStop, Op


def extract(src, name, *, failures=1, registry=None):
    tree = ast.parse(src)
    env = build_module_env(tree, "<test>")
    func = next(n for n in ast.walk(tree)
                if isinstance(n, (ast.AsyncFunctionDef, ast.FunctionDef))
                and n.name == name)
    return extract_function(func, env, failures=failures,
                            registry=registry or {}, name=name)


def op_kinds(sk):
    return [i.kind for i in sk.instrs if isinstance(i, Op)]


def check(src, name, *, ranks=2, failures=1):
    return check_model(ProtocolModel(extract(src, name, failures=failures),
                                     ranks=ranks, failures=failures))


def findings(src, name, **kw):
    return {(v.rule, v.lineno) for v in check(src, name, **kw).violations}


def executed(src, name, *, failures=0):
    """The ops one rank alone executes, in order.  ``name`` must end in
    a ``raise``: the finding's timeline is then the whole run."""
    (v,) = check(src, name, ranks=1, failures=failures).violations
    assert "explicit raise" in v.message, v.message
    return re.findall(r"r0: (\w+) at line", v.timeline)


def test_basic_collectives_and_guard():
    src = """
async def f(ctx, world):
    try:
        await world.halo()
    except MPIError:
        world.revoke()
    alive = await world.shrink()
    ok = await alive.agree(1)
    await alive.barrier()
    return ok
"""
    sk = extract(src, "f")
    assert op_kinds(sk) == ["halo", "revoke", "shrink", "agree", "barrier"]
    # the halo, and only the halo, resumes at the revoke when it fails
    pc = {i.kind: n for n, i in enumerate(sk.instrs) if isinstance(i, Op)}
    assert [i.handler for i in sk.instrs if isinstance(i, Op)] == \
        [pc["revoke"], None, None, None, None]
    # so every placement of one failure is repaired ...
    result = check(src, "f", ranks=3)
    assert result.ok and result.kills_explored >= 1
    # ... and without the guard the same failure escapes at the halo
    assert findings(src.replace("try:", "if True:").replace(
        "except MPIError:", "else:"), "f", ranks=3) == {("ULF017", 4)}


def test_helper_inlined_and_anchored_at_call_site():
    src = """
async def probe(comm):
    await comm.barrier()

async def f(ctx, world):
    await probe(world)
"""
    sk = extract(src, "f")
    (barrier,) = [i for i in sk.instrs
                  if isinstance(i, Op) and i.kind == "barrier"]
    # anchored at the call line in f, not the body line in probe
    assert barrier.lineno == 6


def test_sync_comm_helper_is_inlined():
    src = """
def declare_failure(comm):
    comm.revoke()

async def f(ctx, world):
    declare_failure(world)
    await world.shrink()
"""
    assert op_kinds(extract(src, "f")) == ["revoke", "shrink"]


def test_non_comm_helper_stays_opaque():
    src = """
def pick_hosts(names):
    return sorted(names)

async def f(ctx, world):
    hosts = pick_hosts(("a", "b"))
    await world.barrier()
    return hosts
"""
    assert op_kinds(extract(src, "f")) == ["barrier"]


def test_static_range_runs_every_iteration():
    src = """
async def f(ctx, world):
    for seg in range(3):
        await world.barrier()
    raise Done
"""
    sk = extract(src, "f")
    assert op_kinds(sk) == ["barrier"]         # a loop, not three copies
    assert executed(src, "f") == ["barrier"] * 3


def test_module_constant_resolves_range_bound():
    src = """
SEGMENTS = 2

async def f(ctx, world):
    for seg in range(1, SEGMENTS + 1):
        await world.barrier()
    raise Done
"""
    assert executed(src, "f") == ["barrier"] * 2


def test_rebound_module_constant_is_not_a_constant():
    """``SEGMENTS = pick()`` after ``SEGMENTS = 2`` drops the name (the
    rule dataflow's harvest always had): the range is untracked, so the
    loop is a retry loop and its bound is a finding, not two rounds."""
    src = """
SEGMENTS = 2
SEGMENTS = pick()

async def f(ctx, world):
    for seg in range(SEGMENTS):
        await world.barrier()
"""
    assert build_module_env(ast.parse(src), "<test>").consts == {}
    (v,) = check(src, "f", ranks=1, failures=0).violations
    assert v.rule == "ULF017" and "failure budget" in v.message
    assert v.timeline.count("barrier") == 1    # failures + 1 attempts


def test_call_site_constant_resolves_helper_range():
    src = """
async def loop(comm, n):
    for seg in range(n):
        await comm.barrier()

async def f(ctx, world):
    await loop(world, 2)
    raise Done
"""
    assert executed(src, "f") == ["barrier"] * 2


def test_runtime_sequence_and_enumerate_targets_are_bound():
    src = """
async def f(ctx, world):
    for i, r in enumerate((5, 7)):
        if i == 1 and r == 7:
            await world.barrier()
    for pair in ((1, 2),):
        a, b = pair
        if a + b == 3:
            await world.shrink()
    raise Done
"""
    assert executed(src, "f") == ["barrier", "shrink"]


def test_loop_bounds_follow_the_failure_budget():
    """A wide range is a retry loop (failures + 1 attempts), a ``while``
    gets failures + 2 rounds; one more is the abstraction bound."""
    retry = """
async def f(ctx, world):
    for attempt in range(10):
        await world.barrier()
        if attempt == LAST:
            break
    raise Done
"""
    spin = """
async def f(ctx, world):
    n = 0
    while n < ROUNDS:
        await world.barrier()
        n += 1
    raise Done
"""
    for failures in (0, 1, 2):
        last, rounds = failures, failures + 2
        assert executed(retry.replace("LAST", str(last)), "f",
                        failures=failures) == ["barrier"] * (last + 1)
        assert executed(spin.replace("ROUNDS", str(rounds)), "f",
                        failures=failures) == ["barrier"] * rounds
        for src in (retry.replace("LAST", str(last + 1)),
                    spin.replace("ROUNDS", str(rounds + 1))):
            (v,) = check(src, "f", ranks=1, failures=failures).violations
            assert "failure budget" in v.message


def test_break_and_continue_are_edges_of_the_loop():
    src = """
async def f(ctx, world):
    for seg in range(5):
        if seg == 1:
            continue
        if seg == 3:
            break
        await world.barrier()
    while True:
        await world.shrink()
        break
    raise Done
"""
    assert executed(src, "f") == ["barrier", "barrier", "shrink"]


PROBE = """
async def probe(comm):
    try:
        await comm.barrier()
        return True
    except MPIError:
        return False
"""

#: ways of leaving a ``try`` body other than falling off its end, each
#: with the ``# unguarded`` halo whose failure must then escape.  (A
#: handler left armed would catch it and end the run quietly.)
LEAVING = {
    "return": PROBE + """
async def f(ctx, world):
    ok = await probe(world)
    if ok:
        await world.halo()  # unguarded
""",
    "break": """
async def f(ctx, world):
    while True:
        try:
            await world.barrier()
            break
        except MPIError:
            pass
    await world.halo()  # unguarded
""",
    "continue": """
async def f(ctx, world):
    for seg in range(2):
        try:
            await world.barrier()
            continue
        except MPIError:
            return
    await world.halo()  # unguarded
""",
}


def unguarded_line(src):
    return 1 + src[:src.index("# unguarded")].count("\n")


@pytest.mark.parametrize("shape", LEAVING)
def test_leaving_a_try_body_leaves_no_handler_armed(shape):
    src = LEAVING[shape]
    assert findings(src, "f") == {("ULF017", unguarded_line(src))}


def test_return_out_of_an_inlined_callee_keeps_the_callers_handler():
    """The callee returns from inside its own ``try``; a failure later in
    the caller's ``try`` is the caller's to handle, not the callee's
    (whose handler here would stop the run)."""
    src = """
async def probe(comm):
    try:
        await comm.barrier()
        return True
    except MPIError:
        raise RuntimeError("the probe itself failed")

async def f(ctx, world):
    try:
        ok = await probe(world)
        await world.halo()
    except MPIError:
        world.revoke()
    alive = await world.shrink()
    await alive.barrier()
"""
    result = check(src, "f")
    assert result.ok, [v.message for v in result.violations]
    assert result.kills_explored >= 1


def test_return_after_the_try_is_flagged_the_same():
    src = LEAVING["return"].replace(
        "        return True\n", "").replace(
        "        return False\n", "        return False\n    return True\n")
    assert "    return True" in src
    assert findings(src, "f") == {("ULF017", unguarded_line(src))}


def test_inlined_callee_inherits_the_call_sites_handler():
    src = """
async def step(comm):
    await comm.halo()

async def f(ctx, world):
    try:
        await step(world)
    except MPIError:
        world.revoke()
    alive = await world.shrink()
    await alive.barrier()
"""
    assert check(src, "f").ok
    assert findings(src.replace("try:", "if True:").replace(
        "except MPIError:", "else:"), "f") == {("ULF017", 7)}


@pytest.mark.parametrize("body, message", [
    ("try:\n        pass\n    finally:\n        pass", "finally"),
    ("try:\n        pass\n    except A:\n        pass\n"
     "    else:\n        pass", "finally/else"),
    ("try:\n        pass\n    except A:\n        pass\n"
     "    except B:\n        pass", "one except"),
    ("for x in (1,):\n        pass\n    else:\n        pass", "loop else"),
    ("match world:\n        case _:\n            pass", "Match"),
])
def test_unmodelled_suites_are_rejected(body, message):
    with pytest.raises(ExtractError, match=message):
        extract(f"async def f(ctx, world):\n    {body}\n", "f")


def test_spawn_and_merge_args():
    src = """
async def f(ctx, world):
    alive = await world.shrink()
    inter = await alive.spawn_multiple(1, child, ())
    merged = await inter.merge(high=False)
    return merged

async def child(ctx):
    pass
"""
    sk = extract(src, "f")
    spawn = next(i for i in sk.instrs
                 if isinstance(i, Op) and i.kind == "spawn")
    assert spawn.args["count"] == ("const", 1)
    merge = next(i for i in sk.instrs
                 if isinstance(i, Op) and i.kind == "merge")
    assert merge.args["high"] == ("const", False)


def test_reduce_op_symbol_resolved_by_name():
    src = """
from repro.mpi.comm import MAX

async def f(ctx, world):
    h = await world.allreduce(0, op=MAX)
    return h
"""
    sk = extract(src, "f")
    red = next(i for i in sk.instrs
               if isinstance(i, Op) and i.kind == "allreduce")
    assert red.args["op"] == ("const", "max")


def test_raise_becomes_failstop():
    src = """
async def f(ctx, world):
    if world.rank == 0:
        raise RuntimeError("boom")
    await world.barrier()
"""
    sk = extract(src, "f")
    assert any(isinstance(i, FailStop) for i in sk.instrs)


def test_recursion_is_rejected():
    src = """
async def f(ctx, world):
    await world.barrier()
    await f(ctx, world)
"""
    with pytest.raises(ExtractError):
        extract(src, "f")


def test_find_protocol_models_both_annotation_forms():
    """The comment on the def line and the comment just above it."""
    src = '''
async def inline(ctx, world):  # repro: protocol ranks=3 failures=1
    await world.barrier()

# repro: protocol ranks=2 failures=1 child=kid
async def comment(ctx, world):
    await world.barrier()

async def kid(ctx):
    pass

async def plain(ctx, world):
    await world.barrier()
'''
    found = find_protocol_models(ast.parse(src), src)
    by_name = {f.name: params for f, params in found}
    assert set(by_name) == {"inline", "comment"}
    assert by_name["inline"] == {"ranks": 3, "failures": 1}
    assert by_name["comment"] == {"ranks": 2, "failures": 1, "child": "kid"}


def test_reconstruct_registry_has_repair_entry_points():
    reg = reconstruct_registry()
    assert set(reg) == {"communicator_reconstruct", "repair_comm",
                        "shrink_detect_repair", "nc_detect_repair",
                        "CombinationApp", "RecoveryStrategy",
                        "RespawnStrategy", "ShrinkInPlaceStrategy",
                        "NonCollectiveStrategy", "RecoveryTechnique",
                        "CheckpointRestart", "ResamplingCopying",
                        "AlternateCombination"}
    for name, source_file in [("communicator_reconstruct", "reconstruct.py"),
                              ("nc_detect_repair", "strategy.py")]:
        func, env = reg[name]
        assert isinstance(func, ast.AsyncFunctionDef)
        assert env.path.endswith(source_file)
    for name, source_file in [("CombinationApp", "core/app.py"),
                              ("CheckpointRestart", "ft/recovery.py")]:
        cls, env = reg[name]
        assert isinstance(cls, ast.ClassDef)
        assert env.path.endswith(source_file)
    # the nc loop reaches Fig. 5 and the readmit through the same registry
    sk = extract("""
async def f(ctx, world):
    grid = await world.split(0, world.rank)
    await nc_detect_repair(ctx, world, grid, (0, 1), None, entry=f,
                           argv=(), placement=None, labels={})
""", "f", registry=reg)
    assert {"agree", "barrier", "spawn", "merge", "readmit"} <= \
        set(op_kinds(sk))


def test_reconstruct_registry_reads_substituted_source():
    from repro.ft import strategy
    shipped = Path(strategy.__file__).read_text()
    reg = reconstruct_registry({"strategy.py": shipped + """
async def shrink_detect_repair(ctx, world): return (world, False)
async def nc_detect_repair(ctx, world, grid): return (grid, False)
"""})
    assert reg["shrink_detect_repair"][0].args.args[-1].arg == "world"
    with pytest.raises(ExtractError, match="nc_detect_repair"):
        reconstruct_registry(
            {"strategy.py": "async def shrink_detect_repair(): pass"})
