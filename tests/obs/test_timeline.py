"""Chrome trace_event export."""

import json

import pytest

from repro.mpi.tracing import TraceEvent, Tracer
from repro.obs import chrome_trace, export_timeline
from repro.obs.schema import validate_chrome_trace
from repro.obs.timeline import US_PER_SECOND

SHRINK = dict(phase="shrink", start=1.0, dur=0.5, labels={"gid": "2"})
SEND = dict(comm="job0.world", src=1, dst=0, tag=0)


def test_chrome_trace_span_events_become_complete_events():
    events = [
        TraceEvent(1.5, "job0.0", "span", **SHRINK),
        TraceEvent(2.0, "job0.1", "send", **SEND),
    ]
    doc = chrome_trace(events)
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    (x,) = xs
    assert x["name"] == "shrink"
    assert x["ts"] == pytest.approx(1.0 * US_PER_SECOND)
    assert x["dur"] == pytest.approx(0.5 * US_PER_SECOND)
    assert x["args"] == {"gid": "2"}
    (i,) = instants
    assert i["name"] == "send" and i["args"]["detail"] == "job0.world 1->0 tag=0"


def test_chrome_trace_assigns_one_tid_per_actor():
    events = [TraceEvent(0.0, f"job0.{r}", "coll", op="barrier",
                         comm="job0.world", rank=r) for r in range(3)]
    doc = chrome_trace(events)
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert sorted(e["tid"] for e in instants) == [0, 1, 2]
    names = {e["tid"]: e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert names == {0: "job0.0", 1: "job0.1", 2: "job0.2"}


def test_export_timeline_round_trip(tmp_path):
    tracer = Tracer()
    tracer.record(0.5, "job0.0", "span", phase="solve", start=0.0, dur=0.5,
                  labels={"gid": "0"})
    tracer.record(0.6, "job0.0", "kill", host="host0")
    trace_path = tmp_path / "trace.jsonl"
    out_path = tmp_path / "timeline.json"
    tracer.save(str(trace_path))
    doc = export_timeline(str(trace_path), str(out_path))
    validate_chrome_trace(doc)
    on_disk = json.loads(out_path.read_text())
    assert on_disk == doc
    assert any(e["ph"] == "X" and e["name"] == "solve"
               for e in on_disk["traceEvents"])
