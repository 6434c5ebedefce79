#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

A is the parent (or the first set), B the change (or the second set).
One row per (metric, workload) with both medians and quartiles and a
label, from the bounds ``BENCHMARK.json`` fixes:

``better`` / ``worse``
    B's median differs from A's by more than the bound, in that
    direction.
``unchanged``
    the medians agree within the bound.
``unresolved``
    the run-to-run spread (distance between the quartiles as a share of
    the median, the wider of the two sides) exceeds the bound, and it is
    not the case that every sample of one side beats every sample of the
    other: this pair of runs cannot tell.  Measure again, or longer; do
    not read it as "unchanged".

Exact counts and simulated results (units ``count``, ``virt_s``,
``l1``) compare by equality: ``same`` or ``changed``.  A change that
only makes the simulator faster must leave every one of them ``same``.
Other per-layer values carry no bound; they are printed with their
ratio for reading, not for gating.

Exits 1 if any row is ``worse`` or an operation failed in B that did
not fail in A, else 0.
"""

from __future__ import annotations

import json
import sys

from measure import EXACT_UNITS, iqr_share, load_declaration


def gain(a: float, b: float, better: str) -> float:
    """By what share of A's median B is better (negative: worse)."""
    if not a:
        return 0.0
    return (a - b) / a if better == "lower" else (b - a) / a


def label_of(a: dict, b: dict, better: str, bound: float) -> str:
    sa, sb = a.get("samples", [a["value"]]), b.get("samples", [b["value"]])
    if len(sa) > 1 and len(sb) > 1 \
            and max(iqr_share(sa), iqr_share(sb)) > bound \
            and not (max(sb) < min(sa) or min(sb) > max(sa)):
        return "unresolved"
    g = gain(a["value"], b["value"], better)
    if g > bound:
        return "better"
    if g < -bound:
        return "worse"
    return "unchanged"


def fmt(m: dict) -> str:
    text = f"{m['value']:.6g}"
    if "q1" in m:
        text += f" [{m['q1']:.4g}, {m['q3']:.4g}]"
    return text


def compare(a: dict, b: dict, declaration: dict) -> int:
    worse = changed = 0
    print(f"A: {a['commit']} seed {a['seed']}   "
          f"B: {b['commit']} seed {b['seed']}")
    print(f"{'metric':<34} {'workload':<14} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B vs A':>8}  label")

    def row(name, workload, ma, mb, better, bound):
        nonlocal worse, changed
        if ma["unit"] in EXACT_UNITS:
            label = "same" if ma["value"] == mb["value"] else "changed"
            changed += label == "changed"
            delta = ""
        elif bound is None:
            label = "-"
            delta = f"{gain(ma['value'], mb['value'], better):+.1%}"
        else:
            label = label_of(ma, mb, better, bound)
            worse += label == "worse"
            delta = f"{gain(ma['value'], mb['value'], better):+.1%}"
        print(f"{name:<34} {workload:<14} {fmt(ma):<34} {fmt(mb):<34} "
              f"{delta:>8}  {label}")

    for workload, wa in a["workloads"].items():
        wb = b["workloads"][workload]
        for m in declaration["end_to_end"]:
            row(m["name"], workload, wa["end_to_end"][m["name"]],
                wb["end_to_end"][m["name"]], m["better"], m["bound"])
        if wb["failed"] > wa["failed"]:
            worse += 1
            print(f"{'failed operations':<34} {workload:<14} "
                  f"{wa['failed']:<34} {wb['failed']:<34} {'':>8}  worse")
    for m in declaration["per_layer"]:
        name = m["name"]
        for workload, wa in a["workloads"].items():
            if name in wa["per_layer"]:
                row(name, workload, wa["per_layer"][name],
                    b["workloads"][workload]["per_layer"][name],
                    m["better"], None)
        if name in a["probes"]:
            row(name, "(probe)", a["probes"][name], b["probes"][name],
                m["better"], None)
    print(f"{worse} worse, {changed} exact values changed")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.splitlines()[0])
    a, b = (json.load(open(path)) for path in argv)
    return compare(a, b, load_declaration())


if __name__ == "__main__":
    sys.exit(main())
