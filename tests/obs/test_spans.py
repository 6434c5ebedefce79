"""Span recorder: phase timing, aggregation, trace emission."""

import pytest

from repro.obs import PHASES, SpanRecorder


class FakeClock:
    """Deterministic (time, seq) stamp source."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0

    def stamp(self):
        self.seq += 1
        return (self.now, self.seq)

    def advance(self, dt):
        self.now += dt


def test_span_records_duration_and_labels():
    clk = FakeClock()
    rec = SpanRecorder(clk.stamp)
    with rec.span("job0.0", "shrink", technique="CR", gid=3):
        clk.advance(1.5)
    ((actor, phase, t_start, t_end, _seq, labels),) = rec.log
    assert (actor, phase) == ("job0.0", "shrink")
    assert t_end - t_start == pytest.approx(1.5)
    assert labels == {"technique": "CR", "gid": "3"}


def test_equal_label_sets_share_one_read_only_mapping():
    """Spans opened with equal labels, through the recorder or through
    the ranks' contexts, log one interned mapping per recorder."""
    from repro.mpi import Universe
    from repro.machine.presets import IDEAL

    clk = FakeClock()
    rec = SpanRecorder(clk.stamp)
    for gid in (3, 3, 4):
        with rec.span("job0.0", "solve", technique="CR", gid=gid):
            pass
    a, b, c = (record[-1] for record in rec.log)
    assert a is b and a == {"technique": "CR", "gid": "3"}
    assert c == {"technique": "CR", "gid": "4"}
    with pytest.raises(TypeError):
        a["gid"] = "4"

    async def main(ctx):
        with ctx.span("solve", technique="CR", gid=3):
            pass

    uni = Universe(IDEAL)
    uni.launch(2, main)
    uni.run()
    (*_, first), (*_, second) = uni.spans.log
    assert first is second and first == a


def test_span_closes_on_exception():
    """An aborted phase (another failure mid-repair) still consumed time."""
    clk = FakeClock()
    rec = SpanRecorder(clk.stamp)
    with pytest.raises(RuntimeError):
        with rec.span("job0.0", "spawn"):
            clk.advance(2.0)
            raise RuntimeError("failure during repair")
    ((_actor, phase, t_start, t_end, _seq, _labels),) = rec.log
    assert phase == "spawn" and t_end - t_start == pytest.approx(2.0)


def test_nested_spans_both_recorded():
    clk = FakeClock()
    rec = SpanRecorder(clk.stamp)
    with rec.span("r0", "detect"):
        clk.advance(0.5)
        with rec.span("r0", "shrink"):
            clk.advance(1.0)
        clk.advance(0.25)
    by_phase = {phase: t_end - t_start
                for _actor, phase, t_start, t_end, *_ in rec.log}
    assert by_phase["shrink"] == pytest.approx(1.0)
    assert by_phase["detect"] == pytest.approx(1.75)


def test_phase_totals_max_vs_sum():
    clk = FakeClock()
    rec = SpanRecorder(clk.stamp)
    with rec.span("r0", "merge"):
        clk.advance(1.0)
    clk.now = 0.0
    with rec.span("r1", "merge"):
        clk.advance(3.0)
    assert rec.phase_totals()["merge"] == pytest.approx(3.0)     # max
    assert rec.phase_totals("sum")["merge"] == pytest.approx(4.0)
    with pytest.raises(ValueError):
        rec.phase_totals("median")


def test_by_actor_and_by_label():
    clk = FakeClock()
    rec = SpanRecorder(clk.stamp)
    with rec.span("r0", "recovery", gid=2):
        clk.advance(1.0)
    with rec.span("r0", "recovery", gid=2):
        clk.advance(0.5)
    with rec.span("r1", "combine"):
        clk.advance(2.0)
    assert rec.totals["r0"]["recovery"] == pytest.approx(1.5)
    per_grid = rec.by_label("gid")
    assert per_grid["2"]["recovery"] == pytest.approx(1.5)
    assert "combine" not in per_grid.get("2", {})  # span had no gid label


class Traced:
    """Stands in for the universe: the object whose ``tracer`` a close
    reads."""

    def __init__(self, tracer=None):
        self.tracer = tracer


def test_spans_emitted_to_trace_sink():
    from repro.mpi.tracing import Tracer
    clk = FakeClock()
    traced = Traced(Tracer())
    rec = SpanRecorder(clk.stamp, traced)
    clk.advance(2.0)
    with rec.span("job0.3", "reconstruct", attempt=0):
        clk.advance(4.0)
    (e,) = traced.tracer.events
    assert (e.time, e.actor, e.kind) == (6.0, "job0.3", "span")
    assert (e.phase, e.start, e.dur) == ("reconstruct", 2.0, 4.0)
    assert dict(e.labels) == {"attempt": "0"}


def test_traced_span_line_is_pinned_byte_for_byte():
    from repro.mpi.tracing import Tracer
    clk = FakeClock()
    traced = Traced(Tracer())
    rec = SpanRecorder(clk.stamp, traced)
    clk.advance(0.125)
    with rec.span("job0.3", "solve", technique="AC", gid=7):
        clk.advance(1.0 / 3.0)
    (e,) = traced.tracer.events
    assert e.detail == "solve start=0.125000000 dur=0.333333333 gid=7 " \
                       "technique=AC"
    assert e.dur == 1.0 / 3.0           # the field keeps the full float


def test_untraced_close_formats_nothing():
    """With no tracer attached a close builds no event, and a traced close
    stores the labels without formatting them: only ``detail`` reads
    them."""
    from repro.mpi.tracing import Tracer

    class Unformattable:
        def __str__(self):
            return self

        def __format__(self, spec):     # pragma: no cover - the failure
            raise AssertionError("span line built at close")

    clk = FakeClock()
    traced = Traced()
    rec = SpanRecorder(clk.stamp, traced)
    with rec.span("r0", "solve") as open_span:
        open_span.labels = {"gid": Unformattable()}
    assert len(rec.log) == 1
    traced.tracer = Tracer()
    with rec.span("r0", "detect") as open_span:
        open_span.labels = {"gid": Unformattable()}
    with rec.span("r0", "detect"):
        pass
    assert [e.phase for e in traced.tracer.events] == ["detect", "detect"]
    assert traced.tracer.events[1].detail == "detect start=0.000000000 " \
                                             "dur=0.000000000"


def test_universe_spans_reach_the_tracer_only_while_one_is_attached():
    from repro.mpi import Universe
    from repro.mpi.tracing import Tracer

    async def main(ctx):
        with ctx.span("solve"):
            await ctx.compute(1.0)
        ctx.universe.tracer = Tracer()
        with ctx.span("detect"):
            await ctx.compute(1.0)

    uni = Universe()
    uni.launch(1, main)
    uni.run()
    assert [phase for _, phase, *_ in uni.spans.log] == ["solve", "detect"]
    assert [e.phase for e in uni.tracer.events
            if e.kind == "span"] == ["detect"]


def test_max_spans_bound():
    """The log stops at ``max_spans``; the totals count every close."""
    clk = FakeClock()
    rec = SpanRecorder(clk.stamp, max_spans=2)
    for _ in range(5):
        with rec.span("r0", "solve"):
            clk.advance(0.25)
    assert len(rec.log) == 2
    assert rec.dropped == 3
    assert rec.totals == {"r0": {"solve": 1.25}}
    assert rec.phase_totals() == {"solve": 1.25}


def test_phase_names_are_canonical():
    """Every phase the instrumentation emits must be in PHASES — the
    schema validator rejects unknown names."""
    for p in ("solve", "detect", "agree", "shrink", "spawn", "merge",
              "reconstruct", "checkpoint_write", "checkpoint_read",
              "recompute", "recovery", "combine"):
        assert p in PHASES


# ---------------------------------------------------------------------------
# the log's aggregates against references computed from its records
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def killed_run():
    """A multi-rank CR respawn run with two kills mid-solve."""
    from repro.core import AppConfig
    from repro.core.app import app_main
    from repro.core.runner import make_universe
    from repro.ft.checkpoint import Disk
    from repro.ft.failure_injection import FailureGenerator, Kill
    from repro.machine.presets import OPL

    cfg = AppConfig(n=5, level=3, technique_code="CR", steps=4,
                    diag_procs=2, checkpoint_count=2, disk=Disk())
    uni, total = make_universe(cfg, OPL)
    job = uni.launch(total, app_main, argv=(cfg,))
    FailureGenerator().inject(uni, job, [Kill(3, 1e-3), Kill(6, 2e-3)])
    uni.run()
    return uni.spans


def test_log_aggregates_equal_span_references(killed_run):
    log = killed_run.log
    assert len({actor for actor, *_ in log}) > 4
    assert {"detect", "shrink", "spawn", "merge"} <= \
        {phase for _, phase, *_ in log}
    by_actor, by_gid = {}, {}
    for actor, phase, t_start, t_end, _seq, labels in log:
        phases = by_actor.setdefault(actor, {})
        phases[phase] = phases.get(phase, 0.0) + (t_end - t_start)
        if "gid" in labels:
            phases = by_gid.setdefault(labels["gid"], {})
            phases[phase] = phases.get(phase, 0.0) + (t_end - t_start)
    totals_max, totals_sum = {}, {}
    for phases in by_actor.values():
        for phase, dur in phases.items():
            totals_max[phase] = max(totals_max.get(phase, 0.0), dur)
            totals_sum[phase] = totals_sum.get(phase, 0.0) + dur
    assert killed_run.totals == by_actor
    assert killed_run.by_label("gid") == by_gid
    assert killed_run.phase_totals() == totals_max
    assert killed_run.phase_totals("sum") == totals_sum
