#!/usr/bin/env python
"""Mini scaling study (Fig. 11): total time and parallel efficiency of the
three techniques across process counts, with and without failures.

Run:  python examples/scaling_study.py           (quick, ~1 min)
      python examples/scaling_study.py --paper   (paper-scale regime)
"""

import sys

from repro.experiments.fig11 import FULL, format_fig11, run_fig11


def main():
    if "--paper" in sys.argv:
        pts = run_fig11(**FULL)
    else:
        pts = run_fig11(n=7, steps=16, diag_procs=(2, 4, 8),
                        failure_counts=(0, 2), compute_scale=200.0)
    print(format_fig11(pts))
    print("\nReading guide: AC/RC scale well without failures; CR pays "
          "checkpoint writes\nand per-checkpoint detection; two failures "
          "add the beta-ULFM reconstruction\ncost, which explodes with "
          "core count (Table I).")


if __name__ == "__main__":
    main()
