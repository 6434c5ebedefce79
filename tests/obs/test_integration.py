"""End-to-end observability: real runs produce phase breakdowns, stats
feed the registry, traces export to valid Chrome timelines."""

import pytest

from repro.core import AppConfig, baseline_solve_time, plan_failures, run_app
from repro.ft.failure_injection import Kill
from repro.machine.presets import IDEAL, OPL
from repro.mpi.tracing import Tracer
from repro.mpi.universe import run_ranks
from repro.obs import PHASES, validate_chrome_trace
from repro.obs.timeline import chrome_trace


def cr_cfg(**kw):
    kw.setdefault("n", 6)
    kw.setdefault("level", 4)
    kw.setdefault("technique_code", "CR")
    kw.setdefault("steps", 16)
    kw.setdefault("diag_procs", 2)
    kw.setdefault("checkpoint_count", 4)
    return AppConfig(**kw)


def test_failure_free_run_has_solve_and_combine_phases():
    m = run_app(cr_cfg(), OPL)
    assert set(m.phase_breakdown) >= {"solve", "combine", "checkpoint_write"}
    assert all(p in PHASES for p in m.phase_breakdown)
    assert all(v >= 0 for v in m.phase_breakdown.values())
    assert m.phase_breakdown["solve"] > 0


def test_real_failure_run_reports_recovery_phases():
    # 22-rank world: below ~19 cores the ULFM cost curves extrapolate to
    # zero, which would make the > 0 assertions vacuous
    cfg = cr_cfg(n=7, diag_procs=4)
    t_solve = baseline_solve_time(cfg, OPL)
    kills = plan_failures(cr_cfg(n=7, diag_procs=4), 1,
                          at=t_solve * 0.5, seed=0)
    m = run_app(cr_cfg(n=7, diag_procs=4), OPL, kills=kills)
    bd = m.phase_breakdown
    # the whole ULFM pipeline must have been timed
    for phase in ("detect", "shrink", "spawn", "merge", "agree",
                  "reconstruct", "checkpoint_read", "recompute"):
        assert bd.get(phase, 0.0) > 0.0, f"missing phase {phase}"
    # sub-phases are bounded by their enclosing reconstruction
    assert bd["shrink"] <= bd["reconstruct"] + 1e-9
    # rank 0's Table I fields are its own span sums: here the slowest
    assert bd["shrink"] == pytest.approx(m.t_shrink, rel=1e-6)
    assert bd["reconstruct"] == pytest.approx(m.t_reconstruct, rel=1e-6)
    # shrink-in-place times its whole repair as one reconstruct span too
    shrunk = run_app(cr_cfg(n=7, diag_procs=4, recovery_mode="shrink"), OPL,
                     kills=kills)
    assert shrunk.phase_breakdown.get("reconstruct", 0.0) > 0.0
    assert shrunk.t_reconstruct > 0.0


def test_phase_by_grid_keys_are_grid_ids():
    cfg = cr_cfg(simulated_lost_gids=(1,))
    m = run_app(cfg, IDEAL)
    assert m.phase_by_grid
    for gid, phases in m.phase_by_grid.items():
        int(gid)  # keys are stringified grid ids
        assert all(p in PHASES for p in phases)
    assert "recovery" in m.phase_by_grid["1"]


def test_phase_breakdown_serialises_in_metrics_dict():
    import json
    m = run_app(cr_cfg(), IDEAL)
    d = json.loads(json.dumps(m.to_dict(), default=str))
    assert d["phase_breakdown"] == pytest.approx(m.phase_breakdown)


def test_traced_run_exports_valid_chrome_timeline(tmp_path):
    cfg = cr_cfg()
    t_solve = baseline_solve_time(cfg, OPL)
    kills = [Kill(5, t_solve * 0.5)]
    tracer = Tracer()
    run_app(cr_cfg(), OPL, kills=kills, tracer=tracer)
    span_events = [e for e in tracer.events if e.kind == "span"]
    assert span_events, "spans must land in the tracer stream"
    doc = chrome_trace(tracer.events)
    validate_chrome_trace(doc)
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert "reconstruct" in names and "checkpoint_write" in names


def test_comm_stats_is_registry_facade():
    """The message counters ``universe.stats`` reads are the universe's
    metrics registry counters (the single source of truth)."""

    async def main(ctx):
        if ctx.rank == 0:
            await ctx.comm.send(b"x" * 64, dest=1, tag=1)
            return None
        return await ctx.comm.recv(source=0, tag=1)

    from repro.machine.presets import IDEAL as M
    from repro.mpi.universe import Universe
    uni = Universe(M)
    job = uni.launch(2, main)
    uni.run()
    assert job.results()[1] == b"x" * 64
    assert uni.stats.messages == 1
    assert uni.registry.counter("mpi_messages").value == 1
    assert uni.registry.counter("mpi_bytes_sent").value == \
        uni.stats.bytes_sent > 0


def test_rank_context_span_accumulates_in_universe():
    async def main(ctx):
        with ctx.span("solve", technique="AC"):
            await ctx.compute(seconds=0.5)
        return ctx.rank

    from repro.machine.presets import OPL as M
    from repro.mpi.universe import Universe
    uni = Universe(M)
    job = uni.launch(2, main)
    uni.run()
    assert job.results() == [0, 1]
    totals = uni.spans.phase_totals()
    assert totals["solve"] == pytest.approx(0.5)
    assert uni.spans.phase_totals("sum")["solve"] == pytest.approx(1.0)
