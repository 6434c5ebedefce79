"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.machine.presets import IDEAL, OPL
from repro.mpi.universe import Universe

#: the installed ``repro`` package: the tree the full-repo lint covers
PACKAGE = Path(repro.__file__).parent


def run_ranks(n, entry, *, machine=IDEAL, argv=(), kills=(), hostfile=None,
              raise_task_failures=True):
    """Run ``entry(ctx)`` on ``n`` ranks; returns (results, universe).

    ``kills`` is a sequence of (rank, time) fail-stop injections.
    """
    uni = Universe(machine, hostfile=hostfile)
    job = uni.launch(n, entry, argv)
    for rank, at in kills:
        uni.kill_rank(job, rank, at=at)
    uni.run(raise_task_failures=raise_task_failures)
    return job.results(), uni


@pytest.fixture
def ideal():
    return IDEAL


@pytest.fixture
def opl():
    return OPL


# ----------------------------------------------------------------------
# the full analyses, computed once per session
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def verify_reports():
    """The default ``verify-protocol`` run: every shipped mode, one report
    each, in ``MODES`` order — the same run the ``tests/ft`` gate reads."""
    from repro.analysis.pytest_plugin import protocol_reports
    return protocol_reports()


@pytest.fixture
def served_verify(monkeypatch, verify_reports):
    """``verify_modes`` answers a default-budget call for known modes from
    ``verify_reports`` (each mode is checked on its own, so a subset is
    those modes' reports), so the CLI renders the session's run instead
    of repeating it.  Any other call runs for real."""
    from repro.analysis import model

    real = model.verify_modes
    by_mode = {rep.mode: rep for rep in verify_reports}

    def verify_modes(modes=None, **budget):
        wanted = [m.upper() for m in (modes or by_mode)]
        if any(v is not None for v in budget.values()) \
                or not set(wanted) <= set(by_mode):
            return real(modes, **budget)
        return [by_mode[m] for m in wanted]

    monkeypatch.setattr(model, "verify_modes", verify_modes)


@pytest.fixture(scope="session")
def repo_lint():
    """The full lint of ``PACKAGE``, ``noqa``-suppressed findings kept
    and marked."""
    from repro.analysis import lint_paths
    return lint_paths([PACKAGE], keep_suppressed=True)


@pytest.fixture
def served_lint(monkeypatch, repo_lint):
    """``lint_paths([PACKAGE])`` answers from ``repo_lint`` (without the
    suppressed findings unless asked), so the CLI renders the session's
    lint instead of repeating it; other paths are linted for real."""
    import repro.analysis

    real = repro.analysis.lint_paths

    def lint_paths(paths, *, keep_suppressed=False):
        if [Path(p).resolve() for p in paths] != [PACKAGE.resolve()]:
            return real(paths, keep_suppressed=keep_suppressed)
        return [v for v in repo_lint if keep_suppressed or not v.suppressed]

    monkeypatch.setattr(repro.analysis, "lint_paths", lint_paths)
