"""Command-line interface.

::

    python -m repro run --technique AC --n 8 --steps 64 --failures 2
    python -m repro run --technique CR --recovery-mode shrink --failures 1
    python -m repro experiment fig10 --quick [--json FILE] [--workers N]
                                     [--cache DIR]
    python -m repro experiment modes --quick --json obs/modes.json
    python -m repro serve --port 8642 --cache /var/cache/repro
    python -m repro cache stats|verify|gc --cache /var/cache/repro
    python -m repro describe --technique RC --n 8
    python -m repro lint [paths ...] [--format json] [--select ULF006]
    python -m repro verify-protocol [--modes CR,RC] [--ranks 4]
    python -m repro analyze-trace trace.jsonl
    python -m repro timeline trace.jsonl -o timeline.json

``run`` executes one application run (optionally with real failures) and
prints the metrics; ``experiment`` regenerates one paper table/figure
(``--json`` writes the machine-readable document with per-phase timing
breakdowns); ``serve`` exposes the results service HTTP API over a
shared ``--cache`` store (cold experiments answer 202 and compute in the
background; see :mod:`repro.service.server`); ``cache`` inspects and
maintains such a store (``stats``/``verify``/``gc``, exit codes on the
lint contract); ``describe`` prints the combination scheme and process
layout; ``lint`` runs the ULF001-ULF020 static + dataflow + protocol
model checks; ``verify-protocol`` extracts the recovery skeletons
(CR/RC/AC data recovery plus the SHRINK and NC repair modes) and
model-checks them over every failure placement, printing
per-rank counterexample timelines on failure; ``analyze-trace`` replays
a recorded event trace through the protocol and race analyzers;
``timeline`` converts a trace to the Chrome trace_event format (load in
Perfetto / chrome://tracing).  Record traces with ``run --trace FILE``.

``lint``, ``verify-protocol`` and ``analyze-trace`` exit codes are a
stable contract for CI: 0 = clean, 1 = violations/findings, 2 = usage
error (missing path, unknown rule code or mode, unreadable trace).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .core import (AppConfig, baseline_solve_time, plan_failures, run_app)
from .ft.recovery import TECHNIQUES
from .ft.strategy import STRATEGIES
from .machine.presets import PRESETS


def _machine(name: str):
    try:
        return PRESETS[name]
    except KeyError:
        raise SystemExit(
            f"unknown machine {name!r}; choose from {sorted(PRESETS)}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=7, help="full grid level (2^n)")
    p.add_argument("--level", type=int, default=4, help="combination level")
    p.add_argument("--technique", default="AC", choices=list(TECHNIQUES),
                   help="data recovery technique")
    p.add_argument("--steps", type=int, default=32, help="timesteps")
    p.add_argument("--diag-procs", type=int, default=4,
                   help="processes per diagonal grid")
    p.add_argument("--machine", default="OPL",
                   help=f"cluster preset {sorted(PRESETS)}")
    p.add_argument("--decomposition", default="1d", choices=["1d", "2d"])
    p.add_argument("--recovery-mode", default="respawn",
                   choices=list(STRATEGIES),
                   help="how the world is repaired after a failure: the "
                        "paper's global respawn, shrink-in-place, or "
                        "non-collective per-grid repair")


def cmd_run(args) -> int:
    machine = _machine(args.machine)

    def make_cfg():
        return AppConfig(
            n=args.n, level=args.level, technique_code=args.technique,
            recovery_mode=args.recovery_mode,
            steps=args.steps, diag_procs=args.diag_procs,
            checkpoint_count=args.checkpoints,
            decomposition=args.decomposition,
            compute_scale=args.compute_scale,
            simulated_lost_gids=tuple(args.lose or ()))

    kills = ()
    if args.failures:
        t_solve = baseline_solve_time(make_cfg(), machine)
        kills = plan_failures(make_cfg(), args.failures,
                              at=max(t_solve * args.failure_fraction, 1e-9),
                              seed=args.seed)
    tracer = None
    if args.trace:
        from .mpi.tracing import Tracer
        tracer = Tracer(max_events=args.trace_max_events)
    metrics = run_app(make_cfg(), machine, kills=kills, tracer=tracer)
    if tracer is not None:
        tracer.save(args.trace)
        print(f"trace: {len(tracer.events)} event(s) "
              f"({tracer.dropped} dropped) -> {args.trace}", file=sys.stderr)
    if args.json:
        print(json.dumps(metrics.to_dict(), default=str, indent=2))
    else:
        m = metrics
        print(f"technique          : {m.technique} on {m.machine}")
        print(f"recovery mode      : {m.recovery_mode}")
        print(f"world size         : {m.world_size}")
        print(f"failures           : {m.n_failures} "
              f"(ranks {m.failed_ranks}, grids {m.lost_gids})")
        print(f"l1 error           : {m.error_l1:.6e}")
        print(f"total time         : {m.t_total:.4f} s")
        print(f"  solve            : {m.t_solve:.4f} s")
        print(f"  reconstruction   : {m.t_reconstruct:.4f} s "
              f"(shrink {m.t_shrink:.3f}, spawn {m.t_spawn:.3f}, "
              f"agree {m.t_agree:.3f}, merge {m.t_merge:.3f})")
        print(f"  data recovery    : {m.t_recovery:.6f} s")
        print(f"  combination      : {m.t_combine:.6f} s")
        if m.checkpoint_writes:
            print(f"  checkpoints      : {m.checkpoint_writes} writes "
                  f"({m.checkpoint_write_time:.3f} s), "
                  f"recompute {m.recompute_steps} steps")
        if m.phase_breakdown:
            from .obs.spans import PHASES
            order = {p: i for i, p in enumerate(PHASES)}
            print("phase breakdown (critical path):")
            for phase in sorted(m.phase_breakdown,
                                key=lambda p: order.get(p, len(order))):
                print(f"  {phase:16s} : {m.phase_breakdown[phase]:.6f} s")
    return 0


def cmd_experiment(args) -> int:
    import time

    from .experiments.registry import format_experiment, run_experiment
    from .sweep import RunCache, SweepRunner

    runner = SweepRunner(workers=args.workers,
                         cache=RunCache(directory=args.cache))
    t0 = time.perf_counter()  # noqa: ULF002 — host-side sweep timing, not simulated time
    points, doc = run_experiment(args.name, bool(args.quick), runner)
    wall = time.perf_counter() - t0  # noqa: ULF002 — host-side sweep timing
    stats = runner.cache.stats()
    if args.json:
        # wall_s and workers vary run to run; cache stats are functions of
        # the batch alone (strip the former when diffing documents)
        doc["params"].update(workers=runner.workers, wall_s=wall,
                             cache_hits=stats["hits"],
                             cache_misses=stats["misses"])
        text = json.dumps(doc, indent=2, default=str)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.json}", file=sys.stderr)
    else:
        print(format_experiment(args.name, points))
        print(f"[sweep] workers={runner.workers} wall={wall:.2f}s "
              f"cache: {stats['hits']} hit(s), {stats['misses']} miss(es)",
              file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    from .service.server import serve
    return serve(host=args.host, port=args.port, cache_dir=args.cache,
                 queue_workers=args.queue_workers,
                 max_pending=args.max_pending,
                 sweep_workers=args.workers, quiet=args.quiet)


def cmd_cache(args) -> int:
    # exit codes follow the lint contract: 0 clean, 1 findings, 2 usage
    import os

    from .sweep.store import SharedStore

    if not os.path.isdir(args.cache):
        print(f"error: no such cache directory: {args.cache}",
              file=sys.stderr)
        return 2
    store = SharedStore(args.cache)
    if args.action == "stats":
        stats = store.stats().to_dict()
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            for k, v in stats.items():
                print(f"{k:>16}: {v}")
        return 0
    if args.action == "verify":
        report = store.verify(quarantine=args.quarantine)
        out = {"ok": len(report["ok"]), "corrupt": report["corrupt"],
               "quarantined": bool(args.quarantine and report["corrupt"])}
        if args.json:
            print(json.dumps(out, indent=2))
        else:
            print(f"verified {out['ok']} entr(ies) ok, "
                  f"{len(report['corrupt'])} corrupt"
                  + (" (quarantined)" if out["quarantined"] else ""))
            for key in report["corrupt"]:
                print(f"  corrupt: {key}")
        return 1 if report["corrupt"] else 0
    if args.action == "gc":
        report = store.gc()
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(f"gc: removed {report['tmp_removed']} tmp file(s) and "
                  f"{report['corrupt_removed']} quarantined blob(s)")
        return 0
    raise SystemExit(f"unknown cache action {args.action}")  # pragma: no cover


def cmd_timeline(args) -> int:
    from .obs.schema import SchemaError, validate_chrome_trace
    from .obs.timeline import export_timeline
    try:
        doc = export_timeline(args.file, args.output)
    except FileNotFoundError:
        print(f"error: no such trace file: {args.file}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {args.file} is not a trace file: {exc}",
              file=sys.stderr)
        return 2
    try:
        validate_chrome_trace(doc)
    except SchemaError as exc:
        print(f"warning: {exc} (timeline written anyway; the trace may "
              f"lack span events — re-record with a run that exercises "
              f"recovery)", file=sys.stderr)
    n = len(doc.get("traceEvents", ()))
    print(f"{args.output}: {n} trace event(s) "
          f"(open in Perfetto or chrome://tracing)", file=sys.stderr)
    return 0


def cmd_describe(args) -> int:
    cfg = AppConfig(n=args.n, level=args.level,
                    technique_code=args.technique,
                    diag_procs=args.diag_procs,
                    decomposition=args.decomposition)
    scheme = cfg.scheme()
    layout = cfg.layout()
    print(scheme.describe())
    print()
    print(layout.describe())
    if cfg.technique_code.upper() == "RC":
        print(f"\nRC replica-pair constraints: {scheme.rc_conflict_pairs()}")
    return 0


def cmd_lint(args) -> int:
    from .analysis import (SEVERITY, default_lint_paths, format_report,
                           lint_paths, RULES)
    if args.rules:
        for rule, summary in sorted(RULES.items()):
            print(f"{rule}  [{SEVERITY.get(rule, 'error'):7s}] {summary}")
        return 0

    import re
    known = set(RULES) | {"ULF000"}
    range_re = re.compile(r"^([A-Z]+)(\d+)-(?:([A-Z]+))?(\d+)$")

    def _expand_range(code: str) -> Optional[set]:
        """``ULF011-ULF015`` (or ``ULF011-015``) -> the known rules in
        that inclusive numeric span; None when not a range."""
        m = range_re.match(code)
        if m is None:
            return None
        prefix, lo, prefix2, hi = m.groups()
        if prefix2 is not None and prefix2 != prefix:
            return None
        lo_n, hi_n = int(lo), int(hi)
        if lo_n > hi_n:
            return None
        span = {f"{prefix}{n:0{len(lo)}d}" for n in range(lo_n, hi_n + 1)}
        endpoints = {f"{prefix}{lo}", f"{prefix}{hi}"}
        if not endpoints <= known:
            return None  # reported as unknown by the caller
        return span & known

    def _codes(raw: Optional[List[str]], flag_name: str) -> Optional[set]:
        """Normalise repeated/comma-separated rule codes and ranges
        (``ULF011-ULF015``); exit 2 on junk."""
        if not raw:
            return None
        codes: set = set()
        unknown: set = set()
        for item in raw:
            for c in item.split(","):
                c = c.strip().upper()
                if not c:
                    continue
                span = _expand_range(c)
                if span is not None:
                    codes |= span
                elif c in known:
                    codes.add(c)
                else:
                    unknown.add(c)
        if unknown:
            print(f"error: {flag_name}: unknown rule(s) "
                  f"{', '.join(sorted(unknown))}; see --rules",
                  file=sys.stderr)
            raise SystemExit(2)
        return codes

    selected = _codes(args.select, "--select")
    ignored = _codes(args.ignore, "--ignore")

    paths = args.paths or default_lint_paths()
    import os
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        for p in missing:
            print(f"error: no such file or directory: {p}", file=sys.stderr)
        return 2
    # SARIF keeps noqa-suppressed findings (emitted with a `suppressions`
    # object — the audit trail); text/json and the exit code see only the
    # active ones.
    violations = lint_paths(paths, keep_suppressed=(args.format == "sarif"))
    # ULF000 (syntax error) always surfaces: a file the linter cannot
    # parse was not checked against whatever the user selected
    if selected is not None:
        violations = [v for v in violations
                      if v.rule in selected or v.rule == "ULF000"]
    if ignored is not None:
        violations = [v for v in violations if v.rule not in ignored]
    active = [v for v in violations if not v.suppressed]
    from .analysis.linter import _iter_py_files
    n_files = len(_iter_py_files(paths))
    if args.format == "json":
        print(json.dumps({
            "files": n_files,
            "violations": [v.to_dict() for v in violations],
            "counts": {
                "total": len(violations),
                "error": sum(v.severity == "error" for v in violations),
                "warning": sum(v.severity == "warning" for v in violations),
            },
        }, indent=2))
    elif args.format == "sarif":
        from .analysis.sarif import to_sarif, validate_sarif
        doc = to_sarif(violations, n_files=n_files)
        validate_sarif(doc)  # the emitter must never ship a bad document
        print(json.dumps(doc, indent=2))
    else:
        print(format_report(violations, n_files=n_files))
    return 1 if active else 0


def cmd_analyze_trace(args) -> int:
    # exit codes follow the lint contract: 0 clean, 1 findings, 2 usage
    from .analysis import (TruncatedTraceError, check_protocol,
                           find_message_races, format_races,
                           format_violations, recovery_episodes)
    from .mpi.tracing import Tracer
    try:
        trace = Tracer.load(args.file)
    except FileNotFoundError:
        print(f"error: no such trace file: {args.file}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {args.file} is not a trace file: {exc}",
              file=sys.stderr)
        return 2
    print(f"{args.file}: {len(trace.events)} event(s)"
          + (f", {trace.dropped} dropped" if trace.dropped else ""))
    try:
        episodes = recovery_episodes(trace,
                                     allow_truncated=args.allow_truncated)
        violations = check_protocol(trace,
                                    allow_truncated=args.allow_truncated)
        races = find_message_races(trace,
                                   allow_truncated=args.allow_truncated)
    except TruncatedTraceError as exc:
        print(f"error: {exc} (or pass --allow-truncated)", file=sys.stderr)
        return 2
    if episodes:
        print(f"recovery episodes ({len(episodes)}):")
        for ep in episodes:
            print(f"  {ep.describe()}")
    print(format_violations(violations))
    print(format_races(races))
    return 1 if (violations or races) else 0


def cmd_verify_protocol(args) -> int:
    # exit codes follow the lint contract: 0 clean, 1 findings, 2 usage
    from .analysis.linter import LintViolation
    from .analysis.model import ExtractError, ModelError, verify_modes

    modes = None
    if args.modes:
        modes = [m.strip() for item in args.modes
                 for m in item.split(",") if m.strip()]
    try:
        reports = verify_modes(modes, ranks=args.ranks,
                               failures=args.failures)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExtractError, ModelError) as exc:
        print(f"error: protocol verification could not complete: {exc}",
              file=sys.stderr)
        return 2

    violations = [
        LintViolation(v.rule, rep.source.path, v.lineno or rep.source.lineno,
                      1, f"[{rep.mode}] {v.message}")
        for rep in reports for v in rep.result.violations]
    if args.format == "json":
        print(json.dumps({
            "modes": [{
                "mode": rep.mode,
                "model": rep.source.name,
                "ranks": rep.source.model.ranks,
                "failures": rep.source.model.failures,
                "states": rep.result.states,
                "ok": rep.ok,
                "violations": [{
                    "rule": v.rule, "line": v.lineno,
                    "message": v.message, "timeline": v.timeline,
                } for v in rep.result.violations],
            } for rep in reports],
            "ok": not violations,
        }, indent=2))
    elif args.format == "sarif":
        from .analysis.sarif import to_sarif, validate_sarif
        doc = to_sarif(violations, n_files=len(reports))
        validate_sarif(doc)  # the emitter must never ship a bad document
        print(json.dumps(doc, indent=2))
    else:
        for rep in reports:
            print(f"{rep.mode}: {rep.result.summary()}")
            for v in rep.result.violations:
                print(f"  {v.rule} {rep.source.path}:{v.lineno}: "
                      f"{v.message}")
                if v.timeline:
                    print(v.timeline)
        clean = sum(rep.ok for rep in reports)
        if violations:
            print(f"verify-protocol: {len(violations)} violation(s) in "
                  f"{len(reports) - clean} of {len(reports)} mode(s)")
        else:
            print(f"verify-protocol: {clean} mode(s) deadlock-free")
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    from .experiments.registry import experiment_names
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant sparse-grid PDE solver (IPDPSW 2014 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one application run")
    _add_common(p_run)
    p_run.add_argument("--failures", type=int, default=0,
                       help="number of real process kills to inject")
    p_run.add_argument("--failure-fraction", type=float, default=0.5,
                       help="when to kill, as a fraction of solve time")
    p_run.add_argument("--lose", type=int, nargs="*",
                       help="grid ids to declare lost (simulated failures)")
    p_run.add_argument("--checkpoints", type=int, default=4,
                       help="CR checkpoint count (-1 = machine optimal)")
    p_run.add_argument("--compute-scale", type=float, default=1.0)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--json", action="store_true",
                       help="print metrics as JSON")
    p_run.add_argument("--trace", metavar="FILE",
                       help="record the MPI event stream to FILE (JSONL), "
                            "for 'analyze-trace'")
    p_run.add_argument("--trace-max-events", type=int, default=100_000,
                       help="trace ring-buffer bound")
    p_run.set_defaults(fn=cmd_run)

    p_exp = sub.add_parser("experiment", help="regenerate a paper figure")
    p_exp.add_argument("name", choices=experiment_names())
    p_exp.add_argument("--quick", action="store_true",
                       help="small fast variant")
    p_exp.add_argument("--json", metavar="FILE",
                       help="write the machine-readable experiment document "
                            "with per-phase breakdowns ('-' = stdout)")
    p_exp.add_argument("--workers", type=int, default=None,
                       help="parallel sweep workers (default: REPRO_WORKERS "
                            "env var, else 1 = serial)")
    p_exp.add_argument("--cache", metavar="DIR", default=None,
                       help="persist the memoised run cache to DIR "
                            "(reruns with the same configs become hits)")
    p_exp.set_defaults(fn=cmd_experiment)

    p_srv = sub.add_parser(
        "serve",
        help="serve experiment/run JSON over HTTP from the shared cache")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8642,
                       help="listen port (0 = ephemeral; default 8642)")
    p_srv.add_argument("--cache", metavar="DIR", default=None,
                       help="shared on-disk store (sharded, multi-process "
                            "safe); omit for a per-server in-memory cache")
    p_srv.add_argument("--queue-workers", type=int, default=2,
                       help="background job workers (default 2)")
    p_srv.add_argument("--max-pending", type=int, default=32,
                       help="pending-job bound before 503 backpressure "
                            "(default 32)")
    p_srv.add_argument("--workers", type=int, default=1,
                       help="sweep workers per job (default 1; the cache "
                            "already deduplicates across jobs)")
    p_srv.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")
    p_srv.set_defaults(fn=cmd_serve)

    p_cache = sub.add_parser(
        "cache", help="inspect or maintain a shared --cache directory")
    p_cache.add_argument("action", choices=["stats", "verify", "gc"],
                         help="stats: entry/byte/shard counts; verify: "
                              "load every blob and report corruption; "
                              "gc: drop tmp and quarantined files")
    p_cache.add_argument("--cache", metavar="DIR", required=True,
                         help="the cache directory to operate on")
    p_cache.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_cache.add_argument("--quarantine", action="store_true",
                         help="with verify: move corrupt blobs aside")
    p_cache.set_defaults(fn=cmd_cache)

    p_desc = sub.add_parser("describe",
                            help="print scheme and process layout")
    _add_common(p_desc)
    p_desc.set_defaults(fn=cmd_describe)

    p_lint = sub.add_parser("lint",
                            help="static ULFM/simulation idiom checks")
    p_lint.add_argument("paths", nargs="*",
                        help="files/directories (default: the repro "
                             "package and examples/)")
    p_lint.add_argument("--rules", action="store_true",
                        help="list the rule catalog and exit")
    p_lint.add_argument("--format", default="text",
                        choices=["text", "json", "sarif"],
                        help="report format (json is machine-readable; "
                             "sarif emits SARIF 2.1.0 for CI code "
                             "scanning)")
    p_lint.add_argument("--select", action="append", metavar="RULE",
                        help="only report these rules (repeatable, "
                             "comma-separable, ranges like "
                             "ULF011-ULF015); syntax errors always "
                             "surface")
    p_lint.add_argument("--ignore", action="append", metavar="RULE",
                        help="drop these rules from the report "
                             "(repeatable, comma-separable, ranges "
                             "like ULF011-ULF015)")
    p_lint.set_defaults(fn=cmd_lint)

    p_vp = sub.add_parser(
        "verify-protocol",
        help="model-check the recovery protocol over all failure "
             "placements")
    p_vp.add_argument("--modes", action="append", metavar="MODE",
                      help="recovery modes to verify (CR, RC, AC, SHRINK, "
                           "NC; repeatable or comma-separated; default all)")
    p_vp.add_argument("--ranks", type=int, default=None,
                      help="override the annotated rank count")
    p_vp.add_argument("--failures", type=int, default=None,
                      help="override the annotated failure budget")
    p_vp.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"],
                      help="report format (sarif emits SARIF 2.1.0)")
    p_vp.set_defaults(fn=cmd_verify_protocol)

    p_an = sub.add_parser("analyze-trace",
                          help="protocol + race analysis of a recorded "
                               "trace")
    p_an.add_argument("file", help="JSONL trace from 'run --trace'")
    p_an.add_argument("--allow-truncated", action="store_true",
                      help="analyze even if the recorder dropped events "
                           "(results may be unsound)")
    p_an.set_defaults(fn=cmd_analyze_trace)

    p_tl = sub.add_parser("timeline",
                          help="convert a trace to Chrome trace_event "
                               "JSON (Perfetto / chrome://tracing)")
    p_tl.add_argument("file", help="JSONL trace from 'run --trace'")
    p_tl.add_argument("-o", "--output", default="timeline.json",
                      help="output path (default: timeline.json)")
    p_tl.set_defaults(fn=cmd_timeline)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "checkpoints", None) == -1:
        args.checkpoints = None
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
