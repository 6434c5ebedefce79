#!/usr/bin/env python
"""Tracked substrate benchmark: emits ``BENCH_substrate.json``.

Measures the four rates the simulation substrate's performance is judged
by, on fixed workloads, and writes them to a JSON file committed next to
the repo so regressions are visible in review diffs:

* ``msg_per_s``         — ping-pong message throughput (8 pairs x 500
  rounds on the IDEAL machine);
* ``events_per_s``      — engine events processed per wall second in the
  same run (scheduler overhead);
* ``solver_steps_per_s`` — serial Lax–Wendroff steps per wall second on a
  ``2^7 x 2^7`` periodic grid (the allocation-free kernel path);
* ``coll_rounds_per_s`` — allreduce rounds per wall second (16 ranks x
  200 rounds).

Usage::

    PYTHONPATH=src python scripts/bench.py [-o BENCH_substrate.json]
    PYTHONPATH=src python scripts/bench.py --smoke   # CI: runs, no JSON
    PYTHONPATH=src python scripts/bench.py --experiments  # sweep engine
    PYTHONPATH=src python scripts/bench.py --scale [--smoke]  # rank scaling
    PYTHONPATH=src python scripts/bench.py --service [--smoke]  # HTTP API

``--scale`` measures events/s and peak RSS versus rank count (16 ->
8192) on an allreduce workload and a ring halo-exchange workload, and
merges the curves into ``BENCH_substrate.json`` under ``"scale"``.
Every point runs in its own subprocess: ``ru_maxrss`` is monotone per
process, so peak-RSS curves are only meaningful with one measurement
per process image.

Each measurement is the best of ``--repeats`` runs (default 3) — wall
time of the fastest run, which is the least noisy estimator on a shared
machine.  ``--smoke`` shrinks every workload to a few iterations, runs
each once and skips the JSON write: it proves the benchmark harness
still executes (imports, workloads, stat plumbing) in seconds, without
producing numbers anyone should read.

``--experiments`` benchmarks the sweep engine instead (emitting
``BENCH_experiments.json``): a headline-shaped fig9 sweep serial vs
4-worker pool vs warm-cache rerun, plus fig11's intrinsic cache-dedup
rate.  Pool speedup is only meaningful on multicore hosts — the file
records ``cpu_count`` so readers can judge the pool numbers.

``--service`` benchmarks the results service (emitting
``BENCH_service.json``): cold vs warm experiment-document latency over
real HTTP against a ``repro serve`` instance, the N-concurrent-clients
-> 1-execution dedup factor of the coalescing job queue, and a
shard-scaling curve of the on-disk store (put/get/scan latency vs entry
count).  Unlike the other smoke modes, ``--service --smoke`` still
writes the JSON (with ``"smoke": true``) so CI can upload it as an
artifact.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.machine.presets import IDEAL  # noqa: E402
from repro.mpi import Universe  # noqa: E402
from repro.pde.advection import AdvectionProblem  # noqa: E402
from repro.pde.lax_wendroff import SerialAdvectionSolver  # noqa: E402

N_PAIRS = 8
N_ROUNDS = 500
N_COLL_RANKS = 16
N_COLL_ROUNDS = 200
SOLVER_LEVEL = 7
N_SOLVER_STEPS = 400


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; it is monotone
    over the process lifetime, so callers who want per-workload peaks must
    isolate each workload in its own process (the ``--scale`` mode does).
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        rss //= 1024
    return round(rss / 1024.0, 1)


def _best(fn, repeats: int):
    """(best wall seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_messages(repeats: int) -> dict:
    async def main(ctx):
        partner = ctx.rank ^ 1
        if ctx.rank % 2 == 0:
            for i in range(N_ROUNDS):
                await ctx.comm.send(i, dest=partner, tag=0)
                await ctx.comm.recv(source=partner, tag=1)
        else:
            for i in range(N_ROUNDS):
                await ctx.comm.recv(source=partner, tag=0)
                await ctx.comm.send(i, dest=partner, tag=1)

    def run():
        uni = Universe(IDEAL)
        uni.launch(2 * N_PAIRS, main)
        uni.run()
        return uni

    secs, uni = _best(run, repeats)
    messages = uni.stats.messages
    events = uni.engine.events_processed
    return {
        "messages": messages,
        "events": events,
        "msg_per_s": round(messages / secs),
        "events_per_s": round(events / secs),
    }


def bench_collectives(repeats: int) -> dict:
    async def main(ctx):
        for _ in range(N_COLL_ROUNDS):
            await ctx.comm.allreduce(ctx.rank)

    def run():
        uni = Universe(IDEAL)
        uni.launch(N_COLL_RANKS, main)
        uni.run()
        return uni

    secs, uni = _best(run, repeats)
    return {
        "coll_calls": uni.stats.collectives["allreduce"],
        "coll_rounds_per_s": round(N_COLL_ROUNDS / secs),
    }


def bench_solver(repeats: int) -> dict:
    def run():
        solver = SerialAdvectionSolver(AdvectionProblem(), SOLVER_LEVEL,
                                       SOLVER_LEVEL, dt=1e-3)
        solver.step(N_SOLVER_STEPS)
        return solver

    secs, _ = _best(run, repeats)
    return {
        "solver_grid": [1 << SOLVER_LEVEL, 1 << SOLVER_LEVEL],
        "solver_steps": N_SOLVER_STEPS,
        "solver_steps_per_s": round(N_SOLVER_STEPS / secs),
    }


# ----------------------------------------------------------------------
# rank-scaling benchmark (--scale -> "scale" section of the JSON)
# ----------------------------------------------------------------------

#: rank counts measured by --scale (smoke keeps the first three)
SCALE_RANKS = (16, 64, 256, 1024, 4096, 8192)
SCALE_RANKS_SMOKE = (16, 64, 256)
#: total rank-rounds per point; rounds = max(4, budget // ranks) so the
#: wall time per point stays roughly flat as ranks grow
SCALE_BUDGET = 16384
SCALE_BUDGET_SMOKE = 1024
_SCALE_HALO_WIDTH = 64


def run_scale_point(spec: dict) -> dict:
    """One (workload, ranks) measurement, in-process.

    Invoked in a fresh subprocess per point by :func:`run_scale_bench` so
    the reported peak RSS belongs to this point alone.
    """
    import numpy as np

    workload = spec["workload"]
    n = spec["ranks"]
    rounds = spec["rounds"]

    if workload == "allreduce":
        async def main(ctx):
            comm = ctx.comm
            for _ in range(rounds):
                await comm.allreduce(1.0)
    else:  # halo: the solvers' ring-exchange idiom
        async def main(ctx):
            comm, r, size = ctx.comm, ctx.rank, ctx.size
            prev_r, next_r = (r - 1) % size, (r + 1) % size
            u = np.full(_SCALE_HALO_WIDTH, float(r))
            for _ in range(rounds):
                lo, hi = await comm.exchange(
                    ((prev_r, 1, u.copy()), (next_r, 2, u.copy())),
                    ((prev_r, 2), (next_r, 1)), copy=False)
                u = (u + lo + hi) / 3.0

    t0 = time.perf_counter()
    uni = Universe(IDEAL)
    uni.launch(n, main)
    uni.run()
    wall = time.perf_counter() - t0
    events = uni.engine.events_processed
    rank_rounds = n * rounds
    return {
        "workload": workload,
        "ranks": n,
        "rounds": rounds,
        "wall_s": round(wall, 3),
        "events": events,
        "events_per_s": round(events / wall),
        "rank_rounds_per_s": round(rank_rounds / wall),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_scale_bench(output: str, smoke: bool) -> int:
    ranks = SCALE_RANKS_SMOKE if smoke else SCALE_RANKS
    budget = SCALE_BUDGET_SMOKE if smoke else SCALE_BUDGET
    points = [{"workload": workload, "ranks": n,
               "rounds": max(4, budget // n)}
              for workload in ("allreduce", "halo") for n in ranks]

    results = []
    for spec in points:
        # one subprocess per point: ru_maxrss is per-process-monotone
        proc = subprocess.run(
            [sys.executable, __file__, "--scale-point", json.dumps(spec)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
            print(f"scale point failed: {spec}", file=sys.stderr)
            return 1
        point = json.loads(proc.stdout)
        results.append(point)
        print(f"{point['workload']:>10} "
              f"ranks={point['ranks']:<5} wall={point['wall_s']:>8.3f}s "
              f"events/s={point['events_per_s']:>10,} "
              f"rss={point['peak_rss_mb']:.1f}MB")

    section = {
        "smoke": smoke,
        "rank_rounds_budget": budget,
        "points": results,
    }
    path = Path(output)
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged["scale"] = section
    path.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"wrote scale section to {output}"
          + (" (smoke numbers: not representative)" if smoke else ""))
    return 0


# ----------------------------------------------------------------------
# sweep-engine benchmark (--experiments -> BENCH_experiments.json)
# ----------------------------------------------------------------------

#: fig9 workload for the sweep benchmark (headline shape, reduced steps)
SWEEP_FIG9 = dict(n=8, steps=8, diag_procs=8, seeds=(0, 1, 2))
SWEEP_WORKERS = 4


def bench_sweep_fig9() -> dict:
    """Serial vs pooled vs warm-cache wall clock on one fig9 sweep."""
    import os

    from repro.experiments.fig9 import run_fig9
    from repro.sweep import RunCache, SweepRunner

    def timed(runner):
        t0 = time.perf_counter()
        pts = run_fig9(runner=runner, **SWEEP_FIG9)
        return time.perf_counter() - t0, pts

    serial = SweepRunner(workers=1)
    t_serial, pts_serial = timed(serial)
    n_runs = serial.cache.stats()["misses"]

    pooled = SweepRunner(workers=SWEEP_WORKERS)
    t_pool, pts_pool = timed(pooled)

    # warm rerun on the serial runner's now-populated cache: every point
    # is a hit, which is what a config-tweak-and-rerun workflow sees
    t_warm, pts_warm = timed(SweepRunner(workers=1, cache=serial.cache))

    assert [vars(p) for p in pts_pool] == [vars(p) for p in pts_serial], \
        "pool run diverged from serial"
    assert [vars(p) for p in pts_warm] == [vars(p) for p in pts_serial], \
        "warm run diverged from serial"
    warm_stats = serial.cache.stats()
    return {
        "fig9_workload": {**SWEEP_FIG9, "runs": n_runs},
        "cpu_count": os.cpu_count(),
        "serial_wall_s": round(t_serial, 3),
        "pool_workers": SWEEP_WORKERS,
        "pool_wall_s": round(t_pool, 3),
        "pool_speedup": round(t_serial / t_pool, 2),
        "warm_wall_s": round(t_warm, 4),
        "warm_speedup": round(t_serial / t_warm, 1),
        "warm_cache_hits": warm_stats["hits"],
        "warm_cache_hit_rate": round(warm_stats["hit_rate"], 3),
    }


def bench_sweep_fig11_dedup() -> dict:
    """Intrinsic cache hits inside one fig11 sweep (shared baselines and
    zero-failure runs deduplicate against stage-1 baseline points)."""
    from repro.experiments.fig11 import run_fig11
    from repro.sweep import SweepRunner

    runner = SweepRunner(workers=1)
    t0 = time.perf_counter()
    run_fig11(n=7, steps=16, diag_procs=(2, 4, 8), seeds=(0,),
              compute_scale=200.0, runner=runner)
    wall = time.perf_counter() - t0
    stats = runner.cache.stats()
    return {
        "fig11_wall_s": round(wall, 3),
        "fig11_cache_hits": stats["hits"],
        "fig11_cache_misses": stats["misses"],
        "fig11_hit_rate": round(stats["hit_rate"], 3),
    }


def run_experiments_bench(output: str, smoke: bool) -> int:
    if smoke:
        global SWEEP_FIG9, SWEEP_WORKERS
        SWEEP_FIG9 = dict(n=7, steps=4, diag_procs=4, seeds=(0,),
                          lost_counts=(1,))
        SWEEP_WORKERS = 2
    results = {"python": platform.python_version()}
    results.update(bench_sweep_fig9())
    if not smoke:
        results.update(bench_sweep_fig11_dedup())
    for key in ("serial_wall_s", "pool_wall_s", "pool_speedup",
                "warm_wall_s", "warm_speedup", "warm_cache_hit_rate"):
        print(f"{key:>20}: {results[key]}")
    if smoke:
        print("sweep smoke ok (numbers above are not representative; "
              "no JSON written)")
    else:
        print(f"{'fig11_hit_rate':>20}: {results['fig11_hit_rate']}")
        Path(output).write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {output}")
    return 0


# ----------------------------------------------------------------------
# results-service benchmark (--service -> BENCH_service.json)
# ----------------------------------------------------------------------

#: warm requests timed against the already-computed document
SERVICE_WARM_REQUESTS = 100
#: concurrent identical cold requests for the dedup measurement
SERVICE_DEDUP_CLIENTS = 8
#: store sizes for the shard-scaling curve (entries per store)
SERVICE_SHARD_COUNTS = (64, 512, 4096)
SERVICE_SHARD_PROBES = 128


def _pctl(values, q: float) -> float:
    """The q-quantile by nearest rank (q in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def bench_service_http(tmp_dir: Path, smoke: bool) -> dict:
    """Cold vs warm document latency and the coalescing dedup factor,
    measured over real HTTP against an in-process ``repro serve``."""
    import threading

    from repro.service.client import ServiceClient
    from repro.service.server import create_server

    warm_n = 10 if smoke else SERVICE_WARM_REQUESTS
    clients = 4 if smoke else SERVICE_DEDUP_CLIENTS

    server = create_server(port=0, cache_dir=str(tmp_dir / "cache"),
                           queue_workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}", timeout=60)
    try:
        client.wait_healthy()

        # cold: one end-to-end document — 202, background compute, poll
        # to 200 — through the real table1 driver
        t0 = time.perf_counter()
        client.experiment("table1", poll_interval=0.02, timeout=600)
        cold_s = time.perf_counter() - t0

        # warm: the same document straight from the shared store
        latencies_ms = []
        for _ in range(warm_n):
            t0 = time.perf_counter()
            status, _ = client.experiment_once("table1")
            latencies_ms.append((time.perf_counter() - t0) * 1000.0)
            assert status == 200, f"warm request answered {status}"

        # dedup: N clients fire the same cold request at the same instant;
        # the job queue must run the computation exactly once
        before = client.cache_stats()["queue"]
        barrier = threading.Barrier(clients)
        tickets = []
        lock = threading.Lock()

        def fire():
            barrier.wait()
            ticket = client.experiment_once("fig10")
            with lock:
                tickets.append(ticket)

        threads = [threading.Thread(target=fire) for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # snapshot before the poll loop: each poll that lands mid-compute
        # also coalesces, which would inflate the dedup count
        fired = client.cache_stats()["queue"]
        client.experiment("fig10", poll_interval=0.02, timeout=600)
        after = client.cache_stats()["queue"]

        executed = after["executed"] - before["executed"]
        deduped = fired["deduped"] - before["deduped"]
        jobs = {p["job"] for s, p in tickets if s == 202}
        assert executed == 1, f"dedup broken: {executed} executions"
        assert len(jobs) <= 1, f"dedup broken: {len(jobs)} distinct jobs"
        warm_p50 = round(_pctl(latencies_ms, 0.50), 2)
        assert warm_p50 < 50.0, f"warm p50 {warm_p50}ms over budget"
        return {
            "cold": {"experiment": "table1", "wall_s": round(cold_s, 3)},
            "warm": {
                "requests": warm_n,
                "p50_ms": warm_p50,
                "p95_ms": round(_pctl(latencies_ms, 0.95), 2),
                "max_ms": round(max(latencies_ms), 2),
            },
            "dedup": {
                "experiment": "fig10",
                "clients": clients,
                "jobs_executed": executed,
                "requests_deduped": deduped,
                "factor": clients,     # N concurrent requests -> 1 run
            },
        }
    finally:
        server.shutdown()
        server.server_close()
        server.state.queue.shutdown(wait=False)


def bench_service_shards(tmp_dir: Path, smoke: bool) -> list:
    """Put/get/scan latency of the sharded store vs entry count."""
    import hashlib

    from repro.sweep.store import SharedStore

    counts = (32,) if smoke else SERVICE_SHARD_COUNTS
    probes = 16 if smoke else SERVICE_SHARD_PROBES
    blob = b"x" * 2048
    curve = []
    for count in counts:
        store = SharedStore(tmp_dir / f"shards-{count}")
        keys = [hashlib.sha256(str(i).encode()).hexdigest()[:16]
                for i in range(count)]
        t0 = time.perf_counter()
        for key in keys:
            store.put(key, blob)
        put_s = time.perf_counter() - t0

        sample = keys[::max(1, count // probes)][:probes]
        t0 = time.perf_counter()
        for key in sample:
            assert store.get(key) is not None
        get_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        scanned = len(store.keys())
        scan_s = time.perf_counter() - t0
        assert scanned == count

        curve.append({
            "entries": count,
            "shards": store.stats().shards,
            "put_us_per_entry": round(put_s / count * 1e6, 1),
            "get_us_per_entry": round(get_s / len(sample) * 1e6, 1),
            "scan_ms": round(scan_s * 1000.0, 2),
        })
    return curve


def run_service_bench(output: str, smoke: bool) -> int:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        tmp_dir = Path(tmp)
        results = {
            "python": platform.python_version(),
            "smoke": smoke,
            **bench_service_http(tmp_dir, smoke),
            "shard_scaling": bench_service_shards(tmp_dir, smoke),
        }

    print(f"{'cold_wall_s':>20}: {results['cold']['wall_s']}")
    print(f"{'warm_p50_ms':>20}: {results['warm']['p50_ms']}")
    print(f"{'warm_p95_ms':>20}: {results['warm']['p95_ms']}")
    d = results["dedup"]
    print(f"{'dedup':>20}: {d['clients']} clients -> "
          f"{d['jobs_executed']} execution "
          f"({d['requests_deduped']} deduped)")
    for point in results["shard_scaling"]:
        print(f"{'shard_scaling':>20}: entries={point['entries']:<5} "
              f"shards={point['shards']:<3} "
              f"get={point['get_us_per_entry']}us "
              f"scan={point['scan_ms']}ms")
    Path(output).write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {output}"
          + (" (smoke numbers: not representative)" if smoke else ""))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--output", default=None,
                    help="output JSON path (default: BENCH_substrate.json, "
                         "or BENCH_experiments.json with --experiments)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="runs per workload; best is kept (default 3)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny workloads, one repeat, no JSON write; "
                         "exercises the harness for CI")
    ap.add_argument("--experiments", action="store_true",
                    help="benchmark the sweep engine (serial vs pool vs "
                         "warm cache) instead of the substrate")
    ap.add_argument("--scale", action="store_true",
                    help="events/s and peak-RSS curves vs rank count "
                         "(merged into the JSON under 'scale')")
    ap.add_argument("--service", action="store_true",
                    help="benchmark the results service over HTTP (cold "
                         "vs warm latency, request dedup, shard scaling)")
    ap.add_argument("--scale-point", metavar="JSON", default=None,
                    help=argparse.SUPPRESS)  # internal: one point, one proc
    args = ap.parse_args(argv)

    if args.scale_point is not None:
        print(json.dumps(run_scale_point(json.loads(args.scale_point))))
        return 0
    if args.scale:
        return run_scale_bench(args.output or "BENCH_substrate.json",
                               args.smoke)
    if args.experiments:
        return run_experiments_bench(
            args.output or "BENCH_experiments.json", args.smoke)
    if args.service:
        return run_service_bench(args.output or "BENCH_service.json",
                                 args.smoke)
    if args.output is None:
        args.output = "BENCH_substrate.json"

    if args.smoke:
        global N_PAIRS, N_ROUNDS, N_COLL_RANKS, N_COLL_ROUNDS
        global SOLVER_LEVEL, N_SOLVER_STEPS
        N_PAIRS, N_ROUNDS = 2, 10
        N_COLL_RANKS, N_COLL_ROUNDS = 4, 5
        SOLVER_LEVEL, N_SOLVER_STEPS = 5, 10
        args.repeats = 1

    results = {
        "python": platform.python_version(),
        "workloads": {
            "ping_pong": f"{N_PAIRS} pairs x {N_ROUNDS} rounds, IDEAL",
            "allreduce": f"{N_COLL_RANKS} ranks x {N_COLL_ROUNDS} rounds, "
                         "IDEAL",
            "solver": f"serial Lax-Wendroff {1 << SOLVER_LEVEL}^2 periodic, "
                      f"{N_SOLVER_STEPS} steps",
        },
    }
    results.update(bench_messages(args.repeats))
    results.update(bench_collectives(args.repeats))
    results.update(bench_solver(args.repeats))
    results["peak_rss_mb"] = peak_rss_mb()

    for key in ("msg_per_s", "events_per_s", "coll_rounds_per_s",
                "solver_steps_per_s"):
        print(f"{key:>20}: {results[key]:,}")
    if args.smoke:
        print("smoke run ok (numbers above are not representative; "
              "no JSON written)")
    else:
        Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
