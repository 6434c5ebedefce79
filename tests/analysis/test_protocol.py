"""ULFM recovery-protocol checker (repro.analysis.protocol)."""

import pytest

from repro.analysis import (TruncatedTraceError, check_protocol,
                            format_violations, recovery_episodes)
from repro.mpi.tracing import Tracer

from .conftest import traced_recovery_run


def synth(*records):
    """Tracer from (time, actor, kind, fields) tuples."""
    t = Tracer()
    for time, actor, kind, fields in records:
        t.record(time, actor, kind, **fields)
    return t


def coll(op, comm, rank):
    return {"op": op, "comm": comm, "rank": rank}


KILLED = {"host": "node000"}


# ---------------------------------------------------------------------------
# real traces
# ---------------------------------------------------------------------------
def test_good_recovery_trace_passes(good_recovery_trace):
    violations = check_protocol(good_recovery_trace)
    assert violations == [], format_violations(violations)


def test_good_trace_yields_complete_episode(good_recovery_trace):
    episodes = recovery_episodes(good_recovery_trace)
    assert episodes, "no recovery episode found in a recovery trace"
    ep = episodes[0]
    assert ep.comm.endswith(".world")
    # the full revoke -> shrink -> spawn -> merge -> split chain, in order
    assert ep.revoke_at <= ep.shrink_at <= ep.spawn_at \
        <= ep.merge_at <= ep.split_at
    assert "revoke@" in ep.describe()


def test_two_failure_trace_passes():
    tracer, results = traced_recovery_run(n=6, kill_ranks=(2, 4))
    assert results[0] == (0, 6, 6)
    assert check_protocol(tracer) == []


def test_reordered_trace_fails_with_precise_diagnostic(good_recovery_trace):
    """Strip the revoke from a real recovery: the checker must name the
    communicator, the dead member and the rule."""
    doctored = Tracer()
    doctored.events = [ev for ev in good_recovery_trace.events
                       if ev.kind not in ("revoke", "revoked")]
    violations = check_protocol(doctored)
    assert any(v.rule == "PROTO-SHRINK-BEFORE-REVOKE" for v in violations)
    v = next(v for v in violations if v.rule == "PROTO-SHRINK-BEFORE-REVOKE")
    assert v.comm.endswith(".world")
    killed = next(e.actor for e in good_recovery_trace.events
                  if e.kind == "kill")
    assert killed in v.message            # the dead member, by name
    assert "without a prior revoke" in v.message
    assert "PROTO-SHRINK-BEFORE-REVOKE" in str(v)


# ---------------------------------------------------------------------------
# synthetic traces, rule by rule
# ---------------------------------------------------------------------------
def test_shrink_before_revoke_flagged():
    t = synth(
        (0.0, "j.0", "coll", coll("barrier", "j.world", 0)),
        (0.0, "j.1", "coll", coll("barrier", "j.world", 1)),
        (0.5, "j.1", "kill", KILLED),
        (1.0, "j.0", "coll", coll("shrink", "j.world", 0)),
    )
    violations = check_protocol(t)
    assert [v.rule for v in violations] == ["PROTO-SHRINK-BEFORE-REVOKE"]
    assert violations[0].time == 1.0


def test_shrink_after_revoke_clean():
    t = synth(
        (0.0, "j.0", "coll", coll("barrier", "j.world", 0)),
        (0.0, "j.1", "coll", coll("barrier", "j.world", 1)),
        (0.5, "j.1", "kill", KILLED),
        (0.9, "j.0", "revoke", {"comm": "j.world", "rank": 0}),
        (0.95, "j.world", "revoked", {"comm": "j.world"}),
        (1.0, "j.0", "coll", coll("shrink", "j.world", 0)),
    )
    assert check_protocol(t) == []


def test_spawn_on_damaged_comm_flagged():
    t = synth(
        (0.0, "j.0", "coll", coll("barrier", "j.world", 0)),
        (0.0, "j.1", "coll", coll("barrier", "j.world", 1)),
        (0.5, "j.1", "kill", KILLED),
        (1.0, "spawn1", "spawn", {"count": 1, "parent": "j.world"}),
    )
    violations = check_protocol(t)
    assert [v.rule for v in violations] == ["PROTO-SPAWN-BEFORE-SHRINK"]
    assert "j.world" in violations[0].message


def test_spawn_on_shrunk_comm_clean():
    t = synth(
        (0.0, "j.0", "coll", coll("shrink", "j.world", 0)),
        (1.0, "spawn1", "spawn", {"count": 1, "parent": "j.world.shrunk"}),
    )
    assert check_protocol(t) == []


def test_merge_before_spawn_flagged():
    t = synth(
        (1.0, "j.0", "coll", coll("merge", "spawn7.bridge", 0)),
    )
    violations = check_protocol(t)
    assert [v.rule for v in violations] == ["PROTO-MERGE-BEFORE-SPAWN"]
    assert "spawn7" in violations[0].message


def test_split_before_merge_flagged():
    t = synth(
        (0.5, "spawn7", "spawn", {"count": 1, "parent": "j.world.shrunk"}),
        (1.0, "j.0", "coll", coll("split", "spawn7.bridge.merged", 0)),
    )
    violations = check_protocol(t)
    assert [v.rule for v in violations] == ["PROTO-SPLIT-BEFORE-MERGE"]


def test_use_after_revoke_flagged():
    t = synth(
        (0.5, "j.0", "revoke", {"comm": "j.world", "rank": 0}),
        (0.6, "j.world", "revoked", {"comm": "j.world"}),
        (1.0, "j.0", "send", {"comm": "j.world", "src": 0, "dst": 1,
                              "tag": 5}),
        # survivor ops: legal
        (1.1, "j.0", "coll", coll("agree", "j.world", 0)),
        (1.2, "j.1", "coll", coll("shrink", "j.world", 1)),
    )
    violations = check_protocol(t)
    assert [v.rule for v in violations] == ["PROTO-USE-AFTER-REVOKE"]
    assert "send 0->1" in violations[0].message


def test_truncated_trace_refused():
    t = Tracer(max_events=1)
    t.record(0.0, "j.0", "coll", **coll("barrier", "j.world", 0))
    t.record(0.1, "j.0", "coll", **coll("barrier", "j.world", 0))
    with pytest.raises(TruncatedTraceError):
        check_protocol(t)
    assert check_protocol(t, allow_truncated=True) == []

