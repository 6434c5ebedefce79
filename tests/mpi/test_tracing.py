"""MPI event tracing: structured events, their rendering and the file format."""

import dataclasses
import json

import pytest

from repro.mpi.errors import ANY_SOURCE, ANY_TAG
from repro.mpi.tracing import KINDS, TraceEvent, Tracer

from ..conftest import run_ranks as run


def traced_run(n, entry, **kw):
    from repro.mpi.universe import Universe
    from repro.machine.presets import IDEAL
    uni = Universe(IDEAL)
    uni.tracer = Tracer()
    job = uni.launch(n, entry)
    for rank, at in kw.get("kills", ()):
        uni.kill_rank(job, rank, at=at)
    uni.run(raise_task_failures=False)
    return job, uni


def test_messages_and_collectives_traced():
    async def main(ctx):
        await ctx.comm.barrier()
        if ctx.rank == 0:
            await ctx.comm.send("x", dest=1, tag=3)
        elif ctx.rank == 1:
            await ctx.comm.recv(source=0, tag=3)
        return None

    job, uni = traced_run(2, main)
    t = uni.tracer
    assert len(t.filter(kind="coll")) == 2      # two barrier calls
    sends = t.filter(kind="send")
    assert len(sends) == 1
    (s,) = sends
    assert (s.src, s.dst, s.tag, s.anysrc) == (0, 1, 3, False)
    assert "0->1 tag=3" in s.detail


def test_kill_and_spawn_traced():
    async def child(ctx):
        return None

    async def main(ctx):
        await ctx.compute(1.0)
        if ctx.rank == 0:
            await (await ctx.comm.shrink()).spawn_multiple(1, child)
        return None

    # kill rank 1 so shrink has something to do
    job, uni = traced_run(2, main, kills=[(1, 0.5)])
    kinds = {e.kind for e in uni.tracer.events}
    assert "kill" in kinds and "spawn" in kinds
    (spawn,) = uni.tracer.filter(kind="spawn")
    assert spawn.count == 1 and spawn.parent.endswith(".shrunk")


def test_filter_by_kind_and_actor():
    async def main(ctx):
        await ctx.comm.barrier()
        await ctx.comm.allreduce(1)
        return None

    job, uni = traced_run(3, main)
    ops = [e.op for e in uni.tracer.filter(kind="coll")]
    assert sorted(ops) == ["allreduce"] * 3 + ["barrier"] * 3
    first = job.procs[0].name
    mine = uni.tracer.filter(kind="coll", actor=first)
    assert [(e.actor, e.op) for e in mine] == [(first, "barrier"),
                                               (first, "allreduce")]
    assert uni.tracer.filter(kind="spawn") == []


def send_fields(i=0):
    return {"comm": "c", "src": i, "dst": 0, "tag": 0}


def test_tracer_bounded():
    t = Tracer(max_events=2)
    for i in range(5):
        t.record(float(i), "a", "send", **send_fields(i))
    assert [e.src for e in t.events] == [0, 1]
    assert t.dropped == 3


def test_tracer_save_load_roundtrip(tmp_path):
    t = Tracer(max_events=3)
    for i in range(5):
        t.record(float(i), f"p{i}", "send", **send_fields(i))
    path = tmp_path / "trace.jsonl"
    t.save(path)
    back = Tracer.load(path)
    assert len(back.events) == 3
    assert back.dropped == 2
    assert back.events[1].actor == "p1"
    assert back.events[1].time == 1.0
    assert back.events == t.events


def test_tracing_off_by_default_no_overhead():
    async def main(ctx):
        await ctx.comm.barrier()
        return None

    _, uni = run(2, main)
    assert uni.tracer is None


def test_event_str():
    e = TraceEvent(1.5, "proc", "send", **send_fields())
    assert "send" in str(e) and "proc" in str(e) and e.detail in str(e)


# ---------------------------------------------------------------------------
# the detail text: one renderer, the same line the free-text format stored
# ---------------------------------------------------------------------------
#: one event per kind and flag combination, with the detail string the
#: record sites formatted before events became fields
RENDERED = [
    (dict(kind="send", comm="job0.world", src=0, dst=1, tag=3),
     "job0.world 0->1 tag=3"),
    (dict(kind="send", comm="job0.world.split1", src=1, dst=0, tag=0),
     "job0.world.split1 1->0 tag=0"),
    (dict(kind="recv", comm="job0.world", src=2, dst=0, tag=5, anysrc=True,
          anytag=True), "job0.world 2->0 tag=5 anysrc anytag"),
    (dict(kind="recv", comm="job0.world", src=2, dst=0, tag=5, anytag=True),
     "job0.world 2->0 tag=5 anytag"),
    (dict(kind="recv", comm="job0.world", src=1, dst=0, tag=7, anysrc=True),
     "job0.world 1->0 tag=7 anysrc"),
    (dict(kind="coll", op="allreduce", comm="job0.world", rank=2),
     "allreduce job0.world r2"),
    (dict(kind="revoke", comm="job0.world.split1", rank=0),
     "job0.world.split1 r0"),
    (dict(kind="revoked", comm="job0.world"), "propagated"),
    (dict(kind="readmit", comm="job0.world", rank=3, proc="job2.0"),
     "job0.world r3 <- job2.0"),
    (dict(kind="kill", host="node003"), "fail-stop on node003"),
    (dict(kind="spawn", count=2, parent="job0.world.shrunk"),
     "2 proc(s) for job0.world.shrunk"),
    (dict(kind="span", phase="solve", start=0.125, dur=1.0 / 3.0,
          labels={"technique": "AC", "gid": "7"}),
     "solve start=0.125000000 dur=0.333333333 gid=7 technique=AC"),
]


@pytest.mark.parametrize("fields,detail", RENDERED,
                         ids=[f"{f['kind']}-{i}"
                              for i, (f, _) in enumerate(RENDERED)])
def test_detail_is_the_free_text_line(fields, detail):
    assert TraceEvent(1.0, "job0.0", **fields).detail == detail


def test_every_kind_has_a_rendering_case():
    assert {f["kind"] for f, _ in RENDERED} == set(KINDS)


def test_kind_fields_are_event_attributes():
    attrs = {f.name for f in dataclasses.fields(TraceEvent)}
    for kind, (spec, _render) in KINDS.items():
        assert {name for name, _ in spec} <= attrs, kind


# ---------------------------------------------------------------------------
# the saved format: every kind the simulator emits survives save -> load
# ---------------------------------------------------------------------------
def test_every_emitted_kind_survives_save_and_load(tmp_path):
    from repro.core import AppConfig, run_app
    from repro.ft.failure_injection import Kill
    from repro.machine.presets import IDEAL, OPL
    from repro.mpi.universe import Universe

    cfg = dict(n=5, level=3, technique_code="CR", steps=8, diag_procs=2,
               checkpoint_count=2)
    base = run_app(AppConfig(**cfg), OPL)
    tracer = Tracer()
    m = run_app(AppConfig(recovery_mode="nc", **cfg), OPL,
                kills=[Kill(3, base.t_solve * 0.6)], tracer=tracer)
    assert m.n_failures == 1

    async def main(ctx):
        if ctx.rank == 0:
            await ctx.comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
        else:
            await ctx.comm.send(ctx.rank, dest=0, tag=4)

    uni = Universe(IDEAL)
    uni.tracer = tracer
    uni.launch(2, main)
    uni.run()

    events = tracer.events
    assert {e.kind for e in events} == set(KINDS)
    assert any(e.anysrc and e.anytag for e in events)
    path = tmp_path / "trace.jsonl"
    tracer.save(path)
    back = Tracer.load(path)
    assert back.events == events
    assert [e.detail for e in back.events] == [e.detail for e in events]


# ---------------------------------------------------------------------------
# the loader refuses what save would not write, naming the line
# ---------------------------------------------------------------------------
HEADER = {"type": "header", "version": 3, "max_events": 10, "dropped": 0}
SEND = {"t": 1.0, "actor": "job0.0", "kind": "send", "comm": "job0.world",
        "src": 0, "dst": 1, "tag": 3, "anysrc": False, "anytag": False}


def write_lines(path, *records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_loader_accepts_what_save_writes(tmp_path):
    t = Tracer.load(write_lines(tmp_path / "t.jsonl", HEADER, SEND))
    (e,) = t.events
    assert (e.comm, e.src, e.dst, e.tag) == ("job0.world", 0, 1, 3)


@pytest.mark.parametrize("event,why", [
    ({k: v for k, v in SEND.items() if k != "src"}, "lacks field 'src'"),
    ({**SEND, "dst": "1"}, "'dst' is '1', not int"),
    ({**SEND, "tag": True}, "'tag' is True, not int"),
    ({**SEND, "anysrc": 0}, "'anysrc' is 0, not bool"),
    ({**SEND, "t": "1.0"}, "'t' is '1.0', not float"),
    ({**SEND, "detail": "job0.world 0->1 tag=3"}, "unexpected field"),
    ({**SEND, "kind": "barrier"}, "unknown event kind 'barrier'"),
    ({"t": 0.0, "actor": "r0", "kind": "span", "phase": "solve",
      "start": 0.0, "dur": 1.0, "labels": {"gid": 0}}, "'labels'"),
    ([1, 2], "JSON object"),
])
def test_loader_rejects_bad_event_naming_its_line(tmp_path, event, why):
    path = write_lines(tmp_path / "t.jsonl", HEADER, SEND, event)
    with pytest.raises(ValueError, match="line 3: .*" + why.replace(
            "(", r"\(").replace("[", r"\[")):
        Tracer.load(path)


@pytest.mark.parametrize("lines,why", [
    ([{**HEADER, "version": 1}], "line 1: trace format version 1"),
    ([{k: v for k, v in HEADER.items() if k != "version"}],
     "line 1: trace format version None"),
    ([SEND], "line 1: no header record"),
    ([{**HEADER, "dropped": -1}], "line 1: header"),
    ([], "line 1: empty file"),
    ([{**HEADER, "version": 2}], "line 1: trace format version 2"),
])
def test_loader_rejects_old_or_headerless_files(tmp_path, lines, why):
    path = write_lines(tmp_path / "t.jsonl", *lines)
    with pytest.raises(ValueError, match=why):
        Tracer.load(path)


def test_loader_names_the_line_of_bad_json(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(HEADER) + "\n{not json\n")
    with pytest.raises(ValueError, match="line 2: "):
        Tracer.load(path)
