"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_run_baseline(capsys):
    rc = main(["run", "--technique", "AC", "--n", "6", "--steps", "8",
               "--diag-procs", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "l1 error" in out
    assert "AC on OPL" in out


def test_run_with_simulated_loss(capsys):
    rc = main(["run", "--technique", "RC", "--n", "6", "--steps", "8",
               "--diag-procs", "2", "--lose", "1", "--machine", "ideal"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "grids [1]" in out


def test_run_with_real_failures(capsys):
    rc = main(["run", "--technique", "CR", "--n", "6", "--steps", "8",
               "--diag-procs", "2", "--failures", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "failures           : 1" in out
    assert "reconstruction" in out
    assert "checkpoints" in out


def test_run_json_output(capsys):
    rc = main(["run", "--technique", "AC", "--n", "6", "--steps", "8",
               "--diag-procs", "2", "--json", "--machine", "ideal"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["technique"] == "AC"
    assert data["world_size"] == 14
    assert "error_l1" in data


def test_describe(capsys):
    rc = main(["describe", "--technique", "RC", "--n", "6",
               "--diag-procs", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "CombinationScheme" in out
    assert "Layout" in out
    assert "replica-pair constraints" in out


def test_experiment_quick_fig10(capsys):
    rc = main(["experiment", "fig10", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "l1 error" in out


def test_experiment_table1(capsys):
    rc = main(["experiment", "table1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "112.610" in out  # the 304-core spawn time


def test_unknown_machine_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--machine", "nope"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_experiment_quick_fig9(capsys):
    rc = main(["experiment", "fig9", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Raijin" in out and "recovery" in out


def test_run_2d_decomposition(capsys):
    rc = main(["run", "--technique", "AC", "--n", "6", "--steps", "8",
               "--diag-procs", "4", "--decomposition", "2d",
               "--machine", "ideal"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "l1 error" in out


def test_run_machine_optimal_checkpoints(capsys):
    rc = main(["run", "--technique", "CR", "--n", "6", "--steps", "8",
               "--diag-procs", "2", "--checkpoints", "-1",
               "--compute-scale", "1e6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "checkpoints" in out


def test_run_prints_phase_breakdown(capsys):
    rc = main(["run", "--technique", "CR", "--n", "6", "--steps", "8",
               "--diag-procs", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "phase breakdown" in out
    assert "checkpoint_write" in out and "combine" in out


def test_run_json_includes_phase_breakdown(capsys):
    rc = main(["run", "--technique", "CR", "--n", "6", "--steps", "8",
               "--diag-procs", "2", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["phase_breakdown"]["checkpoint_write"] > 0
    assert "phase_by_grid" in data


def test_experiment_json_document(tmp_path, capsys):
    from repro.obs import validate_experiment_doc
    out_path = tmp_path / "fig10.json"
    rc = main(["experiment", "fig10", "--quick", "--json", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    validate_experiment_doc(doc)
    assert doc["experiment"] == "fig10"
    params = doc["params"]
    assert params["quick"] is True
    assert params["workers"] == 1
    assert params["wall_s"] > 0
    assert params["cache_misses"] > 0  # every unique point really ran
    assert any(pt["phases"] for pt in doc["points"])


def test_experiment_json_stdout(capsys):
    rc = main(["experiment", "fig9", "--quick", "--json", "-"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["experiment"] == "fig9"
    assert all("phases" in pt for pt in doc["points"])


def test_timeline_from_traced_run(tmp_path, capsys):
    from repro.obs import validate_chrome_trace
    trace = tmp_path / "trace.jsonl"
    timeline = tmp_path / "timeline.json"
    rc = main(["run", "--technique", "CR", "--n", "6", "--steps", "8",
               "--diag-procs", "2", "--failures", "1",
               "--trace", str(trace)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["timeline", str(trace), "-o", str(timeline)])
    assert rc == 0
    doc = json.loads(timeline.read_text())
    validate_chrome_trace(doc)
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert "reconstruct" in names


def test_timeline_missing_file_errors(capsys):
    assert main(["timeline", "/nonexistent/trace.jsonl"]) == 2
    assert "no such trace file" in capsys.readouterr().err


def _seed_cache(directory):
    from repro.sweep import RunCache
    cache = RunCache(directory=str(directory))
    cache.put("deadbeef", {"t_total": 1.0})
    cache.put("cafebabe", {"t_total": 2.0})
    return cache


def test_cache_stats_subcommand(tmp_path, capsys):
    d = tmp_path / "cache"
    _seed_cache(d)
    rc = main(["cache", "stats", "--cache", str(d), "--json"])
    stats = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert stats["entries"] == 2
    assert stats["shards"] == 2
    assert stats["corrupt"] == 0


def test_cache_verify_flags_corrupt_blob(tmp_path, capsys):
    d = tmp_path / "cache"
    cache = _seed_cache(d)
    path = cache.store.path_for("deadbeef")
    path.write_bytes(path.read_bytes()[:4])        # torn write
    rc = main(["cache", "verify", "--cache", str(d)])
    out = capsys.readouterr().out
    assert rc == 1                                 # findings -> exit 1
    assert "deadbeef" in out
    # quarantine, then gc sweeps the quarantined blob away
    assert main(["cache", "verify", "--cache", str(d),
                 "--quarantine"]) == 1
    capsys.readouterr()
    rc = main(["cache", "gc", "--cache", str(d), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["corrupt_removed"] == 1
    assert main(["cache", "verify", "--cache", str(d)]) == 0


def test_cache_stats_and_verify_leave_an_empty_directory_empty(tmp_path,
                                                              capsys):
    """Regression: the read-only subcommands stamped ``STORE_META.json``
    into whatever directory they were pointed at."""
    assert main(["cache", "stats", "--cache", str(tmp_path)]) == 0
    assert main(["cache", "verify", "--cache", str(tmp_path)]) == 0
    assert "verified 0" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_cache_missing_directory_is_usage_error(capsys):
    rc = main(["cache", "stats", "--cache", "/nonexistent/cache"])
    assert rc == 2
    assert "no such cache" in capsys.readouterr().err


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve", "--cache", "/tmp/c"])
    assert args.port == 8642
    assert args.queue_workers == 2
    assert args.max_pending == 32
    assert args.cache == "/tmp/c"


def test_experiment_names_match_service_registry():
    """The CLI's experiment choices and the HTTP service must expose the
    same catalogue — both sit on the same registry."""
    from repro.experiments.registry import experiment_names
    args = build_parser().parse_args(["experiment", "table1"])
    assert args.name in experiment_names()
    for name in experiment_names():
        assert build_parser().parse_args(["experiment", name]).name == name
