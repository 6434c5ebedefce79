#!/usr/bin/env python
"""Run every paper experiment at the headline (EXPERIMENTS.md) parameters
and dump the formatted tables.  Slower than the benchmark suite; intended
to be run once to refresh EXPERIMENTS.md.

Every section but Fig. 9a is the registered experiment at its ``FULL``
parameter table — the same runs ``python -m repro experiment NAME``
executes — so no parameterisation is spelled here a second time.

All sections run through one shared sweep runner, so runs common to
several experiments (the fig8/table1 failure-free baselines, fig11's
zero-failure points) are computed once and served from the memoised run
cache afterwards.

Usage::

    PYTHONPATH=src python scripts/run_headline_experiments.py \
        [-o outfile] [--workers N] [--cache DIR]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import fig9  # noqa: E402
from repro.experiments.registry import (format_experiment,  # noqa: E402
                                        run_experiment)
from repro.sweep import RunCache, SweepRunner  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--output", default=None,
                    help="output file (default: stdout)")
    ap.add_argument("--workers", type=int, default=None,
                    help="parallel sweep workers (default: REPRO_WORKERS "
                         "env var, else 1)")
    ap.add_argument("--cache", metavar="DIR", default=None,
                    help="persist the run cache to DIR across invocations")
    args = ap.parse_args(argv)

    out = open(args.output, "w") if args.output else sys.stdout
    runner = SweepRunner(workers=args.workers,
                         cache=RunCache(directory=args.cache))

    def section(title, fn):
        t0 = time.time()
        text = fn()
        print(f"\n## {title}\n", file=out)
        print(text, file=out)
        print(f"[wall {time.time() - t0:.0f}s]", file=out)
        out.flush()

    def full(name):
        """The registered experiment at its ``FULL`` table — what
        ``python -m repro experiment NAME`` prints."""
        points, _ = run_experiment(name, False, runner)
        return format_experiment(name, points)

    section("Table I (2 real failures, 19..304 cores)",
            lambda: full("table1"))

    section("Fig. 8 (failure identification / reconstruction, avg 3 seeds)",
            lambda: full("fig8"))

    # the one section that is not a registered parameterisation, so its
    # parameters stay explicit: EXPERIMENTS.md quotes Fig. 9a at n=8 over
    # three seeds, not at the paper-scale regime of fig9's FULL table (9b)
    section("Fig. 9a (recovery overhead, OPL + Raijin, avg 3 seeds)",
            lambda: fig9.format_fig9(fig9.run_fig9(
                n=8, steps=8, diag_procs=8, seeds=(0, 1, 2),
                runner=runner)))

    section("Fig. 9b (paper-scale process-time overhead)",
            lambda: full("fig9"))

    section("Fig. 10 (accuracy, n=9, avg 10 seeds)", lambda: full("fig10"))

    section("Fig. 11 (paper-scale execution time / efficiency)",
            lambda: full("fig11"))

    stats = runner.cache.stats()
    print(f"\n[sweep] workers={runner.workers} cache: {stats['hits']} "
          f"hit(s), {stats['misses']} miss(es) "
          f"(hit rate {stats['hit_rate']:.2f})", file=out)
    if out is not sys.stdout:
        out.close()


if __name__ == "__main__":
    main()
