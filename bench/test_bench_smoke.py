"""Smoke test of the benchmark itself.

Outside ``testpaths``, so the tier-1 suite does not pay for it::

    PYTHONPATH=src python -m pytest bench/ -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
DECLARATION = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_declaration_is_within_the_contract():
    assert set(DECLARATION) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
    workloads = DECLARATION["workloads"]
    end_to_end = DECLARATION["end_to_end"]
    per_layer = DECLARATION["per_layer"]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [x["name"] for x in workloads + end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in end_to_end + per_layer)
    assert all(m["better"] in ("lower", "higher")
               for m in end_to_end + per_layer)
    assert all(0 <= m["bound"] <= 0.25 for m in end_to_end)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in workloads)
    setup = [m for m in end_to_end if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_smoke_run_reports_every_declared_name(tmp_path):
    out = tmp_path / "smoke.json"
    subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke",
                    "--out", str(out)], check=True, timeout=600)
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == {w["name"]
                                        for w in DECLARATION["workloads"]}
    for name, workload in result["workloads"].items():
        assert workload["correct"], (name, workload["failures"])
        for m in DECLARATION["end_to_end"]:
            entry = workload["end_to_end"][m["name"]]
            assert entry["unit"] == m["unit"] and entry["value"] > 0
        reported = {**workload["per_layer"], **result["probes"]}
        for m in DECLARATION["per_layer"]:
            assert reported[m["name"]]["unit"] == m["unit"], m["name"]
        shares = [v["value"] for k, v in workload["per_layer"].items()
                  if k.endswith(".share")]
        assert abs(sum(shares) - 1.0) <= 0.01
