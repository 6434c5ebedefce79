#!/usr/bin/env python3
"""The repo benchmark.  See ``README.md`` in this directory.

One workload, as the acceptance driver runs it (last line of standard
output is one JSON object)::

    python3 bench/run.py --workload sweep_cold --seed 0 --seconds 16 --trace 0
    python3 bench/run.py --workload sweep_cold --seed 0 --seconds 16 --trace 1

All five workloads, each in its own subprocess, timed and then traced,
every metric printed by name with its unit and one result file written::

    python3 bench/run.py [--seed N] [--out FILE]
    python3 bench/run.py --smoke        # one iteration each, under a minute

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced pass that yields the per-layer
metrics.  All times are host time unless a name says ``virt_``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # set-up time counts the imports below

import argparse                 # noqa: E402
import gc                       # noqa: E402
import json                     # noqa: E402
import subprocess               # noqa: E402
import sys                      # noqa: E402
from pathlib import Path        # noqa: E402

import measure                  # noqa: E402
from measure import OUT_DIR, SRC_DIR, now, scalar, summarize  # noqa: E402

WORKLOADS = ("sweep_cold", "recovery_real", "ranks_wide", "grid_deep",
             "serve_mixed")

#: set-ups measured per timed run (this process plus fresh ones); the
#: median is ``setup_s``
SETUP_REPEATS = 3
MIN_ITERATIONS = 8
#: the timed loop gives up on ``MIN_ITERATIONS`` after this many times
#: the requested seconds (a run must end within the driver's limit)
OVERRUN_FACTOR = 4
#: untraced runs of the traced unit before the profiled one; their median
#: is the base of ``trace.overhead_ratio``
TRACE_PLAIN_ITERATIONS = 2
#: in-process reads in serve_mixed's traced unit
TRACED_READS = 2000

SIM_COUNTS = {"simkernel.events": "count", "mpi.messages": "count",
              "mpi.bytes": "count", "mpi.coll_calls": "count",
              "mpi.comms_created": "count", "mpi.spawns": "count",
              "ft.kills": "count", "core.runs": "count",
              "core.rank_steps": "count", "core.virt_t_total_s": "virt_s",
              "ft.virt_detect_s": "virt_s", "ft.virt_reconstruct_s": "virt_s",
              "ft.virt_recovery_s": "virt_s", "core.error_l1_max": "l1"}


def make_workload(name: str):
    if not (SRC_DIR / "repro").is_dir():
        sys.exit(f"bench: {SRC_DIR}/repro not found — run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC_DIR))
    if name == "serve_mixed":
        import serveload
        return serveload.ServeWorkload()
    import simloads
    return simloads.make(name)


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process for the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def timed_pass(workload, args, own_setup_s: float) -> dict:
    calib_before = measure.calibrate()
    setups = [own_setup_s]
    if not args.smoke:
        setups += [child_setup_seconds(args)
                   for _ in range(SETUP_REPEATS - 1)]
    iterations = []
    t0 = now()
    while True:
        gc.collect()            # every iteration starts from the same heap
        iterations.append(workload.iteration())
        elapsed = now() - t0
        if args.smoke or elapsed >= OVERRUN_FACTOR * args.seconds:
            break
        if elapsed >= args.seconds and len(iterations) >= MIN_ITERATIONS:
            break
    calib_after = measure.calibrate()

    failures = list(workload.setup_failures)
    attempted = len(failures)
    pooled: dict = {}
    for it in iterations:
        attempted += it.attempted
        failures += it.failures
        for key, values in it.samples.items():
            pooled.setdefault(key, []).extend(values)
    return {
        "attempted": attempted, "failures": failures,
        "host": {"calib_before_s": calib_before,
                 "calib_after_s": calib_after},
        "end_to_end": {
            "setup_s": summarize(setups, "s"),
            "iter_s_p50": summarize([it.seconds for it in iterations], "s"),
            "work_per_s": summarize(
                [it.work / it.work_seconds for it in iterations
                 if it.work_seconds], "1/s"),
            "peak_rss_mb": scalar(workload.peak_rss_mb(), "MiB"),
        },
        "diagnostics": {key: summarize(values, key.rsplit("_", 1)[-1])
                        for key, values in sorted(pooled.items())},
    }


def traced_pass(workload, args) -> dict:
    import layertrace
    unit, cleanup = workload.traced_unit(
        TRACED_READS // (10 if args.smoke else 1))
    try:
        plain = [unit() for _ in range(1 if args.smoke
                                       else TRACE_PLAIN_ITERATIONS)]
        traced, traced_s, buckets = layertrace.profiled(unit)
    finally:
        cleanup()
    iterations = workload.traced_setup_iterations + plain + [traced]

    untraced_s = measure.quartiles([it.seconds for it in plain])[1]
    events = workload.counts.get("simkernel.events", 0)
    per_layer = layertrace.bucket_metrics(buckets)
    per_layer["trace.overhead_ratio"] = scalar(traced_s / untraced_s, "ratio")
    for name, unit_name in SIM_COUNTS.items():
        per_layer[name] = scalar(workload.counts.get(name, 0), unit_name)
    per_layer["simkernel.host_us_per_event"] = scalar(
        untraced_s / events * 1e6 if events else 0.0, "us")

    failures = list(workload.setup_failures)
    attempted = len(failures)
    for it in iterations:
        attempted += it.attempted
        failures += it.failures
    probed = {"metrics": {}, "nc_failures": []}
    if args.probes:
        import probes
        probed = probes.run_all(args.seed, 0.1 if args.smoke else 1.0)
        attempted += probed["attempted"]
        failures += probed["failures"]

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload.name}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed,
        "untraced_s": untraced_s, "traced_s": traced_s,
        "buckets": buckets,
        "counts": {n: per_layer[n]["value"] for n in SIM_COUNTS},
        "spans": workload.spans,
    }, indent=1) + "\n")
    return {"attempted": attempted, "failures": failures,
            "per_layer": per_layer, "probes": probed["metrics"],
            "nc_failures": probed["nc_failures"],
            "trace_file": str(trace_file.relative_to(measure.REPO_ROOT))}


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        line = f"  {name:<34} {m['value']:>16.6g} {m['unit']:<6}"
        if "q1" in m:
            line += (f" q1 {m['q1']:.6g} q3 {m['q3']:.6g} min {m['min']:.6g}"
                     f" max {m['max']:.6g} n {m['n']}")
        if "tail" in m:
            line += f" p{m['tail']['percentile']:g} {m['tail']['value']:.6g}"
        print(line)


def single(args) -> int:
    workload = make_workload(args.workload)
    try:
        workload.setup(args.seed)
        own_setup_s = now() - T_START
        if args.setup_only:
            print(repr(own_setup_s))
            return 0
        detail = traced_pass(workload, args) if args.trace \
            else timed_pass(workload, args, own_setup_s)
    finally:
        workload.close()

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {**detail[section], **detail.get("probes", {})}
    detail["workload"] = args.workload
    detail["failed"] = len(detail["failures"])
    detail["correct"] = detail["failed"] == 0
    if not args.trace:
        host = detail["host"]
        drift = abs(host["calib_after_s"] - host["calib_before_s"]) \
            / host["calib_before_s"]
        detail["noisy"] = drift > measure.NOISY_CALIBRATION_SHARE
        detail["ops_failed_share"] = detail["failed"] / detail["attempted"]
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail) + "\n")

    print_metrics(f"{args.workload} ({section}, seed {args.seed})", metrics)
    if detail.get("noisy"):
        print("  NOISY: the calibration loop moved by more than 10 % "
              "across this workload; read its times with care")
    for f in detail["failures"]:
        print(f"  failed: {f['op']}: {f['type']}: {f['error']}")
    for f in detail.get("nc_failures", []):
        print(f"  nc probe failed: {f['op']}: {f['type']}: {f['error']}")

    # every declared name, or a KeyError (--probes 0 leaves the probes out)
    declared = [m for m in measure.load_declaration()[section]
                if args.probes or m["name"] in metrics]
    print(json.dumps({
        "correct": detail["correct"], "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in declared}}))
    return 0


# ----------------------------------------------------------------------
# all workloads
# ----------------------------------------------------------------------
def run_child(args, workload: str, trace: int, probes: int) -> dict:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = OUT_DIR / f"detail-{workload}-{trace}.json"
    cmd = [sys.executable, __file__, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--probes", str(probes),
           "--detail", str(detail)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"bench: {workload} (trace {trace}) exited "
                 f"{proc.returncode}")
    result = json.loads(detail.read_text())
    detail.unlink()
    return result


def suite(args) -> int:
    declaration = measure.load_declaration()
    if args.seconds is None:
        args.seconds = declaration["run_seconds"]
    result = {"schema": 1, "commit": measure.git_commit(), "seed": args.seed,
              "seconds": args.seconds, "smoke": args.smoke,
              "host": measure.host_facts(), "workloads": {}, "probes": {}}
    for i, name in enumerate(w["name"] for w in declaration["workloads"]):
        timed = run_child(args, name, trace=0, probes=0)
        traced = run_child(args, name, trace=1, probes=int(i == 0))
        if i == 0:      # probes are workload-independent: run them once
            result["probes"] = traced["probes"]
            result["nc_failures"] = traced["nc_failures"]
        entry = {k: timed[k] for k in
                 ("correct", "attempted", "failed", "failures", "noisy",
                  "ops_failed_share", "host", "end_to_end", "diagnostics")}
        entry["correct"] = timed["correct"] and traced["correct"]
        entry["traced"] = {k: traced[k] for k in
                           ("attempted", "failed", "failures", "trace_file")}
        entry["per_layer"] = traced["per_layer"]
        result["workloads"][name] = entry

        print_metrics(f"== {name}: end to end", entry["end_to_end"])
        print(f"  {'ops_failed_share':<34} "
              f"{entry['ops_failed_share']:>16.6g} share  "
              f"({entry['failed']} of {entry['attempted']} operations)")
        print_metrics(f"== {name}: diagnostics (not gated)",
                      entry["diagnostics"])
        print_metrics(f"== {name}: per layer (traced pass)",
                      entry["per_layer"])
        if entry["noisy"]:
            print("  NOISY: calibration moved by more than 10 %")
        for f in entry["failures"] + entry["traced"]["failures"]:
            print(f"  failed: {f['op']}: {f['type']}: {f['error']}")
    print_metrics("== layer probes", result["probes"])
    for f in result["nc_failures"]:
        print(f"  nc probe failed: {f['op']}: {f['type']}: {f['error']}")

    out = Path(args.out) if args.out else (
        OUT_DIR / "smoke.json" if args.smoke
        else measure.BENCH_DIR / "baseline.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    if not args.smoke:
        line = {k: result[k] for k in ("commit", "seed", "seconds", "host")}
        line["end_to_end"] = {
            name: {m: e["value"] for m, e in w["end_to_end"].items()}
            for name, w in result["workloads"].items()}
        with open(measure.BENCH_DIR / "history.jsonl", "a") as fh:
            fh.write(json.dumps(line) + "\n")
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all, one subprocess each)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per workload "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one iteration per workload, probes at 1/10 size")
    ap.add_argument("--out", help="result file of a run of all workloads")
    ap.add_argument("--probes", type=int, choices=(0, 1), default=1,
                    help="with --trace 1: also run the layer probes")
    ap.add_argument("--detail", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None:
        return suite(args)
    if args.seconds is None:
        args.seconds = measure.load_declaration()["run_seconds"]
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
