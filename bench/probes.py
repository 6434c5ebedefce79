"""Layer probes: direct timed calls into each layer's public functions.

Every probe is sized from the workloads (the rank counts, slab heights
and array shapes they run) and measured three times; the median is the
value.  Probes are workload-independent: a traced run of any
workload reports the same set, so one layer can be followed across
commits without reading five workloads' shares.

``--smoke`` shrinks the repetition counts to a tenth and measures once;
the shapes stay.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
import threading
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.core import AppConfig, run_app
from repro.ft import FileDisk
from repro.machine.presets import IDEAL, OPL
from repro.mpi import Universe
from repro.mpi.tracing import Tracer
from repro.obs import export_timeline
from repro.pde import AdvectionProblem, SerialAdvectionSolver
from repro.service import JobQueue, SharedStore
from repro.simkernel import Engine, Sleep
from repro.sparsegrid import (alternate_coefficients_for, cached_scheme,
                              combine_nodal, nodal_of, resample)
from repro.sweep import RunCache, SweepRunner, fingerprint, run_key

import serveload
import simloads
from measure import OUT_DIR, now, percentile, quartiles, scalar, summarize

class Size:
    """How much a probe measures: full size takes the median of three
    repeats, ``--smoke`` (scale 0.1) a tenth of the repetitions once."""

    def __init__(self, scale: float):
        self.scale = scale
        self.repeats = 3 if scale >= 1.0 else 1

    def n(self, count: int) -> int:
        return max(2, int(count * self.scale))

    def repeat(self, fn: Callable[[], object]) -> list:
        return [fn() for _ in range(self.repeats)]

    def rate(self, work: float, fn: Callable[[], object]) -> dict:
        return summarize(self.repeat(lambda: work / _seconds(fn)), "1/s")


def _seconds(fn: Callable[[], object]) -> float:
    t0 = now()
    fn()
    return now() - t0


def _launch(n_ranks: int, main, **universe_kw) -> Universe:
    uni = Universe(IDEAL, **universe_kw)
    uni.launch(n_ranks, main)
    uni.run()
    return uni


# ----------------------------------------------------------------------
# simkernel, mpi
# ----------------------------------------------------------------------
def probe_simkernel(size: Size) -> Dict[str, dict]:
    tasks, sleeps = 64, size.n(2000)

    async def sleeper():
        for _ in range(sleeps):
            await Sleep(1e-6)

    def run() -> float:
        engine = Engine()
        for _ in range(tasks):
            engine.spawn(sleeper())
        secs = _seconds(engine.run)
        return engine.events_processed / secs

    return {"simkernel.events_per_s": summarize(size.repeat(run), "1/s")}


def probe_mpi(size: Size) -> Dict[str, dict]:
    pairs, pings = 8, size.n(500)
    coll_ranks, coll_rounds = 256, size.n(64)
    halo_ranks, halo_rounds = 64, size.n(200)

    async def pingpong(ctx):
        partner = ctx.rank ^ 1
        for i in range(pings):
            if ctx.rank % 2 == 0:
                await ctx.comm.send(i, dest=partner, tag=0)
                await ctx.comm.recv(source=partner, tag=1)
            else:
                await ctx.comm.recv(source=partner, tag=0)
                await ctx.comm.send(i, dest=partner, tag=1)

    async def allreduce(ctx):
        for _ in range(coll_rounds):
            await ctx.comm.allreduce(1.0)

    async def halo(ctx):
        comm, r, world = ctx.comm, ctx.rank, ctx.size
        prev_r, next_r = (r - 1) % world, (r + 1) % world
        u = np.full(128, float(r))
        for _ in range(halo_rounds):
            lo, hi = await comm.exchange(
                ((prev_r, 1, u.copy()), (next_r, 2, u.copy())),
                ((prev_r, 2), (next_r, 1)), copy=False)
            u = (u + lo + hi) / 3.0

    return {
        "mpi.p2p_msgs_per_s": size.rate(
            2 * pairs * pings, lambda: _launch(2 * pairs, pingpong)),
        "mpi.coll_rank_rounds_per_s": size.rate(
            coll_ranks * coll_rounds,
            lambda: _launch(coll_ranks, allreduce, batch=True)),
        # the event path is what every collective takes once a failure
        # has been injected (recovery windows)
        "mpi.coll_event_rank_rounds_per_s": size.rate(
            coll_ranks * coll_rounds,
            lambda: _launch(coll_ranks, allreduce, batch=False)),
        "mpi.halo_exchanges_per_s": size.rate(
            halo_ranks * halo_rounds, lambda: _launch(halo_ranks, halo)),
    }


# ----------------------------------------------------------------------
# pde, sparsegrid
# ----------------------------------------------------------------------
def probe_pde(size: Size) -> Dict[str, dict]:
    big_steps, small_steps = size.n(64), size.n(4000)

    def steps(level_x: int, level_y: int, n: int) -> float:
        solver = SerialAdvectionSolver(AdvectionProblem(), level_x, level_y,
                                       dt=1e-4)
        return _seconds(lambda: solver.step(n))

    cells = (1 << 10) * (1 << 7)
    return {
        # grid_deep's largest sub-grid
        "pde.cell_updates_per_s": summarize(
            size.repeat(lambda: cells * big_steps / steps(10, 7, big_steps)),
            "1/s"),
        # a 4-row slab as ranks_wide steps them: call overhead, not arithmetic
        "pde.small_steps_per_s": summarize(
            size.repeat(lambda: small_steps / steps(2, 7, small_steps)), "1/s"),
    }


def probe_sparsegrid(size: Size) -> Dict[str, dict]:
    scheme = cached_scheme(10, 4)

    def hump(x, y):
        return np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)

    parts = {g.index: nodal_of(hump, g.index) for g in scheme.grids}
    coeffs = {g.index: float(g.coeff) for g in scheme.grids}
    fine = parts[(10, 7)]
    combine_nodal(parts, coeffs, (10, 10))   # builds the cached plan
    ac_scheme = AppConfig(n=7, level=4, technique_code="AC").scheme()
    lost = [g.gid for g in ac_scheme.grids][1:3]
    gcp_calls = size.n(200)

    def gcp() -> float:
        t0 = now()
        for _ in range(gcp_calls):
            alternate_coefficients_for(ac_scheme, lost)
        return (now() - t0) / gcp_calls

    return {
        "sparsegrid.combine_s": summarize(size.repeat(lambda: _seconds(
            lambda: combine_nodal(parts, coeffs, (10, 10)))), "s"),
        "sparsegrid.resample_s": summarize(size.repeat(lambda: _seconds(
            lambda: resample(fine, (10, 7), (10, 10)))), "s"),
        "sparsegrid.gcp_coeff_s": summarize(size.repeat(gcp), "s"),
    }


# ----------------------------------------------------------------------
# ft, core, obs
# ----------------------------------------------------------------------
def probe_ft(size: Size, tmp: Path) -> Dict[str, dict]:
    snapshot = {"u": np.random.default_rng(0).random((512, 256)),
                "step_count": 1, "level_x": 9, "level_y": 8}
    mib = snapshot["u"].nbytes / 2 ** 20
    n = size.n(20)

    def disk_rates() -> List[float]:
        disk = FileDisk(tmp / "ckpt")
        w = _seconds(lambda: [disk.write(g, 0, snapshot) for g in range(n)])
        r = _seconds(lambda: [disk.read(g, 0, 1) for g in range(n)])
        shutil.rmtree(tmp / "ckpt")
        return [n * mib / w, n * mib / r]

    rates = [disk_rates() for _ in range(size.repeats)]

    # one killed run against its failure-free twin, recovery_real's shape
    points, _ = simloads.recovery_points(0, ("respawn",))
    killed = points[0]                      # respawn / CR / one failure
    twin = replace(killed, kills=())

    def run(point) -> float:
        return _seconds(lambda: run_app(replace(point.cfg), point.machine,
                                        kills=point.kills))

    return {
        "ft.ckpt_write_mb_per_s": summarize([w for w, _ in rates], "MiB/s"),
        "ft.ckpt_read_mb_per_s": summarize([r for _, r in rates], "MiB/s"),
        "ft.repair_host_s": summarize(
            size.repeat(lambda: run(killed) - run(twin)), "s"),
    }


def _sweep_cfg(code: str) -> AppConfig:
    return AppConfig(technique_code=code, **simloads.SWEEP_SHAPE)


def probe_core(size: Size) -> Dict[str, dict]:
    def all_techniques() -> float:
        return sum(_seconds(lambda c=c: run_app(_sweep_cfg(c), OPL))
                   for c in simloads.TECHS)

    return {"core.run_s": summarize(size.repeat(all_techniques), "s")}


def probe_obs(size: Size, tmp: Path) -> Dict[str, dict]:
    def overhead() -> float:
        plain = _seconds(lambda: run_app(_sweep_cfg("RC"), OPL))
        traced = _seconds(lambda: run_app(_sweep_cfg("RC"), OPL,
                                          tracer=Tracer()))
        return (traced - plain) / plain

    tracer = Tracer()
    run_app(_sweep_cfg("RC"), OPL, tracer=tracer)
    tracer.save(tmp / "trace.jsonl")
    return {
        "obs.trace_overhead_share": summarize(size.repeat(overhead), "share"),
        "obs.timeline_export_s": summarize(size.repeat(lambda: _seconds(
            lambda: export_timeline(tmp / "trace.jsonl",
                                    tmp / "timeline.json"))), "s"),
    }


# ----------------------------------------------------------------------
# sweep, service
# ----------------------------------------------------------------------
def _per_call_us(n: int, fn: Callable[[int], object]) -> float:
    t0 = now()
    for i in range(n):
        fn(i)
    return (now() - t0) / n * 1e6


def probe_sweep(size: Size, tmp: Path, seed: int) -> Dict[str, dict]:
    n = size.n(256)
    cfg = _sweep_cfg("CR")
    metrics = run_app(replace(cfg), OPL)
    keys = [fingerprint(("probe", i)) for i in range(n)]

    def cache_times() -> List[float]:
        directory = tmp / "runcache"
        cache = RunCache(directory=str(directory))
        put = _per_call_us(n, lambda i: cache.put(keys[i], metrics))
        mem = _per_call_us(n, lambda i: cache.get(keys[i]))
        fresh = RunCache(directory=str(directory))
        disk = _per_call_us(n, lambda i: fresh.get(keys[i]))
        shutil.rmtree(directory)
        return [put, mem, disk]

    times = [cache_times() for _ in range(size.repeats)]
    points, _ = simloads.build_sweep_cold(seed)

    def pool2_speedup() -> float:
        serial = _seconds(lambda: SweepRunner(workers=1).run(points))
        pooled = _seconds(lambda: SweepRunner(workers=2).run(points))
        return serial / pooled

    return {
        "sweep.run_key_us": summarize(size.repeat(lambda: _per_call_us(
            n, lambda i: run_key(cfg, OPL))), "us"),
        "sweep.put_us": summarize([t[0] for t in times], "us"),
        "sweep.mem_hit_us": summarize([t[1] for t in times], "us"),
        "sweep.disk_hit_us": summarize([t[2] for t in times], "us"),
        # all gated runs use workers=1; this only says what a second
        # worker buys on this host's core count
        "sweep.pool2_speedup": summarize(size.repeat(pool2_speedup), "ratio"),
    }


def probe_service(size: Size, tmp: Path, checks: dict) -> Dict[str, dict]:
    n = size.n(512)
    blob = pickle.dumps(run_app(_sweep_cfg("CR"), OPL))
    keys = [fingerprint(("blob", i)) for i in range(n)]

    def store_times() -> List[float]:
        store = SharedStore(tmp / "store")
        put = _per_call_us(n, lambda i: store.put(keys[i], blob))
        get = _per_call_us(n, lambda i: store.get(keys[i]))
        scan = _seconds(store.stats) * 1e3
        shutil.rmtree(tmp / "store")
        return [put, get, scan]

    times = [store_times() for _ in range(size.repeats)]
    jobs = size.n(200)

    def roundtrip() -> float:
        queue = JobQueue(workers=1)
        try:
            return _per_call_us(jobs, lambda i: queue.submit(
                f"k{i}", lambda: None).wait(10))
        finally:
            queue.shutdown()

    # two identical concurrent submits must cost one execution
    queue, gate = JobQueue(workers=2), threading.Event()
    try:
        first = queue.submit("same", gate.wait)
        second = queue.submit("same", gate.wait)
        gate.set()
        first.wait(10)
        second.wait(10)
        executions = queue.stats()["executed"]
    finally:
        queue.shutdown()
    checks["attempted"] += 1
    if executions != 1:
        checks["failures"].append({
            "op": "jobqueue dedup", "type": "CheckFailed",
            "error": f"{executions} executions for 2 identical submits"})

    return {
        "service.store_put_us": summarize([t[0] for t in times], "us"),
        "service.store_get_us": summarize([t[1] for t in times], "us"),
        "service.store_scan_ms": summarize([t[2] for t in times], "ms"),
        "service.queue_roundtrip_us": summarize(size.repeat(roundtrip), "us"),
        "service.dedup_executions": scalar(executions, "count"),
    }


def probe_serve_session(seed: int, checks: dict) -> Dict[str, dict]:
    """One ``serve_mixed`` iteration, split by phase and endpoint."""
    workload = serveload.ServeWorkload()
    try:
        workload.setup(seed)
        it = workload.iteration()
    finally:
        workload.close()
    checks["attempted"] += it.attempted
    checks["failures"] += it.failures
    s = it.samples
    warm = [ms for kind in ("doc", "run", "stats")
            for ms in s.get(f"warm_{kind}_ms", [])]
    busy = [ms for kind in ("doc", "run", "stats")
            for ms in s.get(f"busy_{kind}_ms", [])]

    def p50(values) -> float:
        return quartiles(values)[1] if values else 0.0

    return {
        "service.start_s": scalar(s["start_s"][0], "s"),
        "service.restart_first_ms": scalar(p50(s.get("restart_doc_ms")), "ms"),
        "service.req_ms_p50": scalar(p50(warm), "ms"),
        "service.req_ms_p95": scalar(percentile(warm, 95) if warm else 0.0,
                                     "ms"),
        "service.req_ms_doc": scalar(p50(s.get("warm_doc_ms")), "ms"),
        "service.req_ms_run": scalar(p50(s.get("warm_run_ms")), "ms"),
        "service.req_ms_stats": scalar(p50(s.get("warm_stats_ms")), "ms"),
        "service.busy_req_ms_p50": scalar(p50(busy), "ms"),
        "service.cold_doc_s": scalar(p50(s.get("cold_doc_s")), "s"),
        "service.warm_req_per_s": scalar(
            it.work / it.work_seconds if it.work_seconds else 0.0, "1/s"),
    }


def probe_nc(seed: int, failures: List[dict]) -> Dict[str, dict]:
    """The non-collective recovery mode at ``recovery_real``'s shape:
    counted, never timed and never part of ``failed``.  At the seed
    commit every one of these raises (``RevokedError`` out of a task);
    the count is here so the fix shows without the timed work changing."""
    points, _ = simloads.recovery_points(seed, ("nc",))
    raised = 0
    for (result, _), point in zip(simloads.run_each(points), points):
        if isinstance(result, BaseException):
            raised += 1
            failures.append(simloads.failure(simloads.label_of(point),
                                             result))
    return {"ft.nc_probe_attempted": scalar(len(points), "count"),
            "ft.nc_probe_failed": scalar(raised, "count")}


# ----------------------------------------------------------------------
def run_all(seed: int, scale: float) -> dict:
    """Every probe.  Returns ``{"metrics", "attempted", "failures",
    "nc_failures"}``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="probes-", dir=OUT_DIR))
    size = Size(scale)
    checks = {"attempted": 0, "failures": []}
    nc_failures: List[dict] = []
    metrics: Dict[str, dict] = {}
    try:
        metrics.update(probe_simkernel(size))
        metrics.update(probe_mpi(size))
        metrics.update(probe_pde(size))
        metrics.update(probe_sparsegrid(size))
        metrics.update(probe_ft(size, tmp))
        metrics.update(probe_core(size))
        metrics.update(probe_obs(size, tmp))
        metrics.update(probe_sweep(size, tmp, seed))
        metrics.update(probe_service(size, tmp, checks))
        metrics.update(probe_serve_session(seed, checks))
        metrics.update(probe_nc(seed, nc_failures))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"metrics": metrics, "attempted": checks["attempted"],
            "failures": checks["failures"], "nc_failures": nc_failures}
