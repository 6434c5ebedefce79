"""Explicit-state checker semantics on hand-assembled skeletons
(repro.analysis.model.checker).

These tests drive the checker directly through the IR assembler so the
semantics under test (rendezvous, failure injection, hang
classification, timelines) are isolated from the extractor.
"""

import pytest

from repro.analysis.model.checker import (ProtocolModel, check_model)
from repro.analysis.model.ir import (Asm, Branch, Jump, Label, Op, Return,
                                     SetVar)

W = ("var", "__world__")


def guarded_recovery():
    """try: halo / except: revoke; shrink; barrier on survivors."""
    a = Asm()
    handler, after = Label(), Label()
    a.emit(Op("halo", W, lineno=2, handler=handler))
    a.emit(Jump(after, lineno=3))
    a.place(handler)
    a.emit(Op("revoke", W, lineno=4))
    a.place(after)
    a.emit(Op("shrink", W, out="alive", lineno=5))
    a.emit(Op("barrier", ("var", "alive"), lineno=6))
    a.emit(Return(lineno=7))
    return a.finish("guarded", "<test>")


def unguarded():
    """halo with no handler: a failure escapes as ProcFailedError."""
    a = Asm()
    a.emit(Op("halo", W, lineno=2))
    a.emit(Op("barrier", W, lineno=3))
    a.emit(Return(lineno=4))
    return a.finish("unguarded", "<test>")


def stranded():
    """After repair, survivor rank 0 recvs a message no live rank sends."""
    a = Asm()
    handler, after, closing = Label(), Label(), Label()
    a.emit(Op("halo", W, lineno=2, handler=handler))
    a.emit(Jump(after, lineno=3))
    a.place(handler)
    a.emit(Op("revoke", W, lineno=4))
    a.place(after)
    a.emit(Op("shrink", W, out="alive", lineno=5))
    a.emit(Branch(("cmp", ">", ("failed_count", W), ("const", 0)),
                  a.here() + 1, closing, lineno=6))
    a.emit(Branch(("cmp", "==", ("rank", ("var", "alive")), ("const", 0)),
                  a.here() + 1, closing, lineno=7))
    a.emit(Op("recv", ("var", "alive"), out="x",
              args={"source": ("const", 1), "tag": ("const", 7)},
              lineno=8))
    a.place(closing)
    a.emit(Op("barrier", ("var", "alive"), lineno=9))
    a.emit(Return(lineno=10))
    return a.finish("stranded", "<test>")


def divergent():
    """Rank 0 enters barrier; everyone else enters bcast — a cross-rank
    collective-sequence divergence, even without failures."""
    a = Asm()
    other, after = Label(), Label()
    a.emit(Branch(("cmp", "==", ("rank", W), ("const", 0)),
                  a.here() + 1, other, lineno=2))
    a.emit(Op("barrier", W, lineno=3))
    a.emit(Jump(after, lineno=3))
    a.place(other)
    a.emit(Op("bcast", W, out="x",
              args={"value": ("const", 0), "root": ("const", 0)}, lineno=4))
    a.place(after)
    a.emit(Return(lineno=5))
    return a.finish("divergent", "<test>")


def probe_then_halo():
    """A guarded probe barrier, then a halo nothing guards — what a probe
    that ``return``s from inside its ``try`` leaves its caller with."""
    a = Asm()
    failed, after = Label(), Label()
    a.emit(Op("barrier", W, lineno=2, handler=failed))
    a.emit(Jump(after, lineno=2))
    a.place(failed)
    a.emit(Return(lineno=3))
    a.place(after)
    a.emit(Op("halo", W, lineno=4))
    a.emit(Return(lineno=5))
    return a.finish("probe_then_halo", "<test>")


def test_a_handler_covers_only_the_ops_that_name_it():
    """Handlers are a property of the op, not a stack the process carries:
    the probe's handler cannot catch the halo's failure, however the
    probe was left."""
    r = check_model(ProtocolModel(probe_then_halo(), ranks=2, failures=1))
    assert {(v.rule, v.lineno) for v in r.violations} == {("ULF017", 4)}
    assert "[raises -> handler]" not in r.violations[0].timeline


def test_unplaced_label_is_rejected():
    a = Asm()
    a.emit(Jump(Label(), lineno=1))
    with pytest.raises(ValueError, match="unplaced target"):
        a.finish("dangling", "<test>")


def test_guarded_recovery_is_deadlock_free():
    r = check_model(ProtocolModel(guarded_recovery(), ranks=3, failures=1))
    assert r.ok, [v.message for v in r.violations]
    assert r.kills_explored >= 1
    assert "deadlock-free" in r.summary()


def test_unguarded_failure_escapes_as_ulf017():
    r = check_model(ProtocolModel(unguarded(), ranks=2, failures=1))
    assert not r.ok
    assert {v.rule for v in r.violations} == {"ULF017"}


def test_stranded_recv_flagged_at_the_recv():
    r = check_model(ProtocolModel(stranded(), ranks=3, failures=1))
    assert not r.ok
    assert {v.rule for v in r.violations} == {"ULF017"}
    assert any(v.lineno == 8 for v in r.violations)


def test_collective_signature_divergence_is_ulf016():
    r = check_model(ProtocolModel(divergent(), ranks=2, failures=0))
    assert not r.ok
    assert {v.rule for v in r.violations} == {"ULF016"}
    # both diverging call sites are named
    lines = {v.lineno for v in r.violations}
    assert {3, 4} <= lines or any(
        "line 3" in v.message or "line 4" in v.message
        for v in r.violations)


def test_rank_in_a_foreign_communicator_is_a_finding_not_a_crash():
    """Every rank splits into its own communicator and rank 0 broadcasts
    its handle: rank 1 asking for its rank in it used to escape as
    ``ValueError: tuple.index(x): x not in tuple`` (what a replacement
    the NC model never re-admitted did to ``verify-protocol``)."""
    a = Asm()
    a.emit(Op("split", W, out="mine",
              args={"color": ("rank", W), "key": ("const", 0)}, lineno=1))
    a.emit(Op("bcast", W, out="theirs",
              args={"value": ("var", "mine"), "root": ("const", 0)},
              lineno=2))
    a.emit(SetVar("r", ("rank", ("var", "theirs")), lineno=3))
    a.emit(Return(lineno=4))
    r = check_model(ProtocolModel(a.finish("foreign", "<test>"), ranks=2,
                                  failures=0))
    (v,) = r.violations
    assert (v.rule, v.lineno) == ("ULF017", 3)
    assert "not a member" in v.message
    assert "r1" in v.timeline


def test_zero_failure_budget_cannot_kill():
    for prog in (guarded_recovery(), unguarded(), stranded()):
        r = check_model(ProtocolModel(prog, ranks=3, failures=0))
        assert r.ok, (prog.name, [v.message for v in r.violations])
        assert r.kills_explored == 0


def test_counterexample_timeline_is_per_rank_steps():
    r = check_model(ProtocolModel(unguarded(), ranks=2, failures=1))
    tl = r.violations[0].timeline
    assert tl  # non-empty rendered timeline
    text = "\n".join(tl) if isinstance(tl, (list, tuple)) else str(tl)
    # per-rank step lines: "step   N: rK: ... (line L)"
    assert "step" in text
    assert "r0" in text or "r1" in text
    assert "line" in text


def test_single_process_trivial_model():
    a = Asm()
    a.emit(SetVar("x", ("const", 1), lineno=1))
    a.emit(Return(("var", "x"), lineno=2))
    sk = a.finish("trivial", "<test>")
    r = check_model(ProtocolModel(sk, ranks=1, failures=0))
    assert r.ok and r.terminals >= 1
