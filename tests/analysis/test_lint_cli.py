"""CLI contract for ``python -m repro lint``: stable exit codes,
``--format json``, ``--select`` / ``--ignore``.

Exit codes are a CI interface: 0 = clean, 1 = violations found,
2 = usage error (missing path, unknown rule code).
"""

import json
from pathlib import Path

import pytest

import repro
from repro.analysis.linter import RULES, SEVERITY
from repro.cli import main as cli_main

FIXTURE = Path(__file__).parent / "fixtures" / "lint_violations.py"
PACKAGE = Path(repro.__file__).parent


def test_exit_0_on_clean_tree(capsys, served_lint):
    assert cli_main(["lint", str(PACKAGE)]) == 0
    assert "lint: clean" in capsys.readouterr().out


def test_exit_1_on_violations(capsys):
    assert cli_main(["lint", str(FIXTURE)]) == 1


def test_exit_2_on_missing_path(capsys):
    assert cli_main(["lint", "no/such/dir"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_exit_2_on_unknown_rule(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["lint", "--select", "ULF999", str(FIXTURE)])
    assert exc.value.code == 2
    assert "ULF999" in capsys.readouterr().err


def test_json_format_schema(capsys):
    assert cli_main(["lint", "--format", "json", str(FIXTURE)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["files"] == 1
    assert report["counts"]["total"] == len(report["violations"])
    assert report["counts"]["total"] == \
        report["counts"]["error"] + report["counts"]["warning"]
    for v in report["violations"]:
        assert set(v) == {"rule", "severity", "path", "line", "col",
                          "message"}
        assert v["rule"] in RULES
        assert v["severity"] == SEVERITY[v["rule"]]


def test_json_format_clean_tree(capsys, served_lint):
    assert cli_main(["lint", "--format", "json", str(PACKAGE)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []
    assert report["counts"] == {"total": 0, "error": 0, "warning": 0}


def test_select_narrows_report(capsys):
    assert cli_main(["lint", "--format", "json", "--select", "ULF002",
                     str(FIXTURE)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert {v["rule"] for v in report["violations"]} == {"ULF002"}


def test_select_accepts_comma_lists_and_repeats(capsys):
    assert cli_main(["lint", "--format", "json",
                     "--select", "ULF001,ULF002", "--select", "ULF006",
                     str(FIXTURE)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert {v["rule"] for v in report["violations"]} == \
        {"ULF001", "ULF002", "ULF006"}


def test_ignore_drops_rules(capsys):
    assert cli_main(["lint", "--format", "json", "--ignore",
                     ",".join(sorted(RULES)), str(FIXTURE)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []


def test_select_accepts_rule_ranges(capsys):
    assert cli_main(["lint", "--format", "json",
                     "--select", "ULF011-ULF015", str(FIXTURE)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert {v["rule"] for v in report["violations"]} == \
        {"ULF011", "ULF012", "ULF013", "ULF014", "ULF015"}


def test_select_accepts_short_range_form(capsys):
    assert cli_main(["lint", "--format", "json",
                     "--select", "ULF011-015", str(FIXTURE)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert {v["rule"] for v in report["violations"]} == \
        {"ULF011", "ULF012", "ULF013", "ULF014", "ULF015"}


def test_ranges_compose_with_plain_codes(capsys):
    assert cli_main(["lint", "--format", "json",
                     "--select", "ULF001,ULF011-ULF012", str(FIXTURE)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert {v["rule"] for v in report["violations"]} == \
        {"ULF001", "ULF011", "ULF012"}


def test_ignore_accepts_ranges(capsys):
    assert cli_main(["lint", "--format", "json",
                     "--ignore", "ULF001-ULF020", str(FIXTURE)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []


def test_exit_2_on_unknown_range_endpoint(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["lint", "--select", "ULF001-ULF999", str(FIXTURE)])
    assert exc.value.code == 2
    assert "ULF001-ULF999" in capsys.readouterr().err


def test_exit_2_on_reversed_range(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["lint", "--select", "ULF015-ULF011", str(FIXTURE)])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# exit-code contract for the cache-safety severities
# ---------------------------------------------------------------------------
def test_warning_severity_still_exits_1(capsys):
    # ULF013/ULF014 are warnings, but any finding means a dirty tree
    assert SEVERITY["ULF014"] == "warning"
    fixture = FIXTURE.parent / "ulf014_nondeterminism.py"
    assert cli_main(["lint", "--format", "json", "--select", "ULF014",
                     str(fixture)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["error"] == 0
    assert report["counts"]["warning"] == report["counts"]["total"] > 0
    assert all(v["severity"] == "warning" for v in report["violations"])


def test_error_severity_counted_for_new_rules(capsys):
    assert SEVERITY["ULF011"] == SEVERITY["ULF012"] == SEVERITY["ULF015"] \
        == "error"
    fixture = FIXTURE.parent / "ulf011_frozen_state.py"
    assert cli_main(["lint", "--format", "json", "--select", "ULF011",
                     str(fixture)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["warning"] == 0
    assert report["counts"]["error"] == report["counts"]["total"] > 0


def test_select_exit_0_when_selected_rule_is_absent(capsys):
    src_only_ulf002 = ("import time\n"
                       "t = time.time()\n")
    f = Path(str(FIXTURE)).parent / "_tmp_select.py"
    try:
        f.write_text(src_only_ulf002)
        assert cli_main(["lint", "--select", "ULF001", str(f)]) == 0
    finally:
        f.unlink()


def test_syntax_error_survives_select(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    assert cli_main(["lint", "--select", "ULF001", str(bad)]) == 1
    assert "ULF000" in capsys.readouterr().out
