"""End-to-end: trace recording through the runner/CLI into the analyzers."""

import json

import pytest

from repro.analysis import check_protocol, find_message_races
from repro.cli import main as cli_main
from repro.core import AppConfig, plan_failures, run_app
from repro.machine.presets import OPL
from repro.mpi.tracing import Tracer


def headline_recovery_trace():
    """The Fig. 8 scenario: a CR run on the OPL preset with one real
    process failure, recorded end to end."""
    cfg = AppConfig(n=5, level=3, technique_code="CR", steps=4,
                    diag_procs=2, checkpoint_count=2)
    kills = plan_failures(cfg, 1, at=0.05, seed=0)
    tracer = Tracer()
    metrics = run_app(cfg, OPL, kills=kills, tracer=tracer)
    assert metrics.n_failures == 1
    return tracer


@pytest.fixture(scope="module")
def fig8_trace():
    return headline_recovery_trace()


def test_headline_fig8_trace_passes_protocol_check(fig8_trace):
    assert len(fig8_trace.events) > 0
    assert fig8_trace.dropped == 0
    violations = check_protocol(fig8_trace)
    assert violations == [], "\n".join(str(v) for v in violations)


def test_headline_fig8_trace_is_race_free(fig8_trace):
    assert find_message_races(fig8_trace) == []


def test_cli_analyze_trace_roundtrip(tmp_path, capsys, fig8_trace):
    path = tmp_path / "good.jsonl"
    fig8_trace.save(path)
    assert cli_main(["analyze-trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "protocol check: clean" in out
    assert "race check: clean" in out
    assert "recovery episodes" in out


def test_cli_analyze_trace_flags_doctored_trace(tmp_path, capsys, fig8_trace):
    doctored = Tracer()
    doctored.events = [ev for ev in fig8_trace.events
                       if ev.kind not in ("revoke", "revoked")]
    path = tmp_path / "bad.jsonl"
    doctored.save(path)
    assert cli_main(["analyze-trace", str(path)]) == 1
    out = capsys.readouterr().out
    assert "PROTO-SHRINK-BEFORE-REVOKE" in out


def test_cli_run_with_trace_writes_jsonl(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    rc = cli_main(["run", "--n", "5", "--level", "3", "--steps", "2",
                   "--technique", "CR", "--diag-procs", "2",
                   "--trace", str(path)])
    assert rc == 0
    assert path.exists()
    back = Tracer.load(path)
    assert len(back.events) > 0
    assert cli_main(["analyze-trace", str(path)]) == 0


@pytest.mark.parametrize("fields", [{}, {"src": "0", "dst": 1},
                                    {"src": 0, "dst": None}],
                         ids=["missing", "str-src", "null-dst"])
def test_cli_analyze_trace_refuses_a_malformed_send(tmp_path, capsys, fields):
    """A send without integer endpoints is refused with exit 2 and its
    line, not skipped into a clean report."""
    event = {"t": 0.0, "actor": "job0.0", "kind": "send",
             "comm": "job0.world", "tag": 3, "anysrc": False,
             "anytag": False, **fields}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"type": "header", "version": 3,
                                "max_events": 10, "dropped": 0}) + "\n"
                    + json.dumps(event) + "\n")
    assert cli_main(["analyze-trace", str(path)]) == 2
    captured = capsys.readouterr()
    assert "line 2:" in captured.err and "send event" in captured.err
    assert "protocol check" not in captured.out
    assert cli_main(["timeline", str(path), "-o",
                     str(tmp_path / "tl.json")]) == 2
    assert "line 2:" in capsys.readouterr().err
