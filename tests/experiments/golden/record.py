"""Golden quick documents of the six registered experiments.

``<name>.quick.json`` and ``<name>.quick.txt`` next to this file are what
``python -m repro experiment <name> --quick`` produces — the ``--json``
document with only the deterministic ``{"quick": true}`` params, and the
text table — recorded at commit ``2a07ed0``, the last one where every
experiment module carried its own runner plumbing and ``main()`` (there
``run_experiment`` returned the points alone and :func:`render` built
and validated the document itself; nothing else in this file differed)::

    PYTHONPATH=src python -m tests.experiments.golden.record

``tests/experiments/test_experiments.py::test_quick_experiment_matches_golden``
replays all six on one shared serial runner and compares bytes.
``--check`` records in memory and names the files that differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments.registry import (experiment_names, format_experiment,
                                        run_experiment)
from repro.sweep import SweepRunner

GOLDEN_DIR = Path(__file__).resolve().parent


def render(name: str, runner) -> dict:
    """``{file name: text}`` of one quick experiment run through ``runner``."""
    points, doc = run_experiment(name, True, runner)
    return {f"{name}.quick.json": json.dumps(doc, indent=2, default=str) + "\n",
            f"{name}.quick.txt": format_experiment(name, points) + "\n"}


def record_all() -> dict:
    runner = SweepRunner(workers=1)
    files: dict = {}
    for name in experiment_names():
        files.update(render(name, runner))
    return files


if __name__ == "__main__":
    files = record_all()
    if sys.argv[1:] == ["--check"]:
        stale = [f for f, text in files.items()
                 if not (GOLDEN_DIR / f).is_file()
                 or (GOLDEN_DIR / f).read_text() != text]
        print("\n".join(stale) or "all goldens match")
        sys.exit(1 if stale else 0)
    for fname, text in files.items():
        (GOLDEN_DIR / fname).write_text(text)
    print(f"wrote {len(files)} files to {GOLDEN_DIR}")
