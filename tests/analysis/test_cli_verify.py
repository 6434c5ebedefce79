"""CLI contract for ``python -m repro verify-protocol`` plus the exit-code
alignment of ``analyze-trace`` and the extended rule-range parsing.

All three share the lint exit contract: 0 = clean, 1 = findings,
2 = usage error.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.sarif import validate_sarif
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# verify-protocol (rendered from the session's run: ``served_verify``)
# ---------------------------------------------------------------------------
def test_verify_protocol_default_clean(capsys, served_verify):
    assert cli_main(["verify-protocol"]) == 0
    out = capsys.readouterr().out
    for mode in ("CR", "RC", "AC", "SHRINK", "NC"):
        assert f"{mode}:" in out
    assert "deadlock-free" in out


def test_verify_protocol_mode_subset(capsys, served_verify):
    assert cli_main(["verify-protocol", "--modes", "cr,rc"]) == 0
    out = capsys.readouterr().out
    assert "CR:" in out and "RC:" in out and "AC:" not in out


def test_verify_protocol_unknown_mode_exit_2(capsys):
    assert cli_main(["verify-protocol", "--modes", "XX"]) == 2
    assert "XX" in capsys.readouterr().err


def test_verify_protocol_json(capsys, served_verify):
    assert cli_main(["verify-protocol", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert {m["mode"] for m in doc["modes"]} == \
        {"CR", "RC", "AC", "SHRINK", "NC"}
    for m in doc["modes"]:
        assert m["states"] > 0
        assert m["violations"] == []


def test_verify_protocol_sarif_validates(capsys, served_verify):
    assert cli_main(["verify-protocol", "--format", "sarif"]) == 0
    doc = json.loads(capsys.readouterr().out)
    validate_sarif(doc)
    assert doc["runs"][0]["results"] == []  # shipped modes are clean


# ---------------------------------------------------------------------------
# analyze-trace exit codes (aligned with the lint contract)
# ---------------------------------------------------------------------------
def test_analyze_trace_missing_file_exit_2(capsys):
    assert cli_main(["analyze-trace", "/no/such/trace.jsonl"]) == 2
    assert "no such trace file" in capsys.readouterr().err


def test_analyze_trace_not_a_trace_exit_2(tmp_path, capsys):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text("this is not json\n")
    assert cli_main(["analyze-trace", str(bogus)]) == 2
    assert "not a trace file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# --select/--ignore ranges over the extended catalog
# ---------------------------------------------------------------------------
def test_select_range_covers_model_rules(capsys):
    fixture = FIXTURES / "ulf017_incomplete_repair.py"
    assert cli_main(["lint", "--select", "ULF016-ULF020", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "ULF017" in out


def test_select_range_excludes_other_rules(capsys):
    fixture = FIXTURES / "ulf017_incomplete_repair.py"
    assert cli_main(["lint", "--select", "ULF001-ULF004",
                     str(fixture)]) == 0


def test_ignore_range_drops_model_rules(capsys):
    fixture = FIXTURES / "ulf017_incomplete_repair.py"
    assert cli_main(["lint", "--ignore", "ULF016-020", str(fixture)]) == 0


def test_reversed_range_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["lint", "--select", "ULF020-ULF016", "."])
    assert exc.value.code == 2


def test_out_of_catalog_range_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["lint", "--select", "ULF016-ULF099", "."])
    assert exc.value.code == 2
