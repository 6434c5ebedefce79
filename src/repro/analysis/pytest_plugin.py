"""Pytest plugin: automatic leak/race audit for mpi-layer tests.

Registered in ``pytest.ini`` (``-p repro.analysis.pytest_plugin``).  After
each test under ``tests/mpi/`` it audits every universe the test created
(a ``Universe.close`` the test makes waits until then) with:

* :func:`repro.analysis.runtime.check_runtime_leaks` — leak *errors* fail
  the test;
* :func:`repro.analysis.races.find_message_races` on the universe's tracer
  (when tracing was on) — races fail the test unless it is marked
  ``@pytest.mark.allow_races`` (it creates races on purpose).

The audit is scoped to ``tests/mpi``: higher-layer tests drive whole
applications where post-run communicator state is part of the scenario.

Tests under ``tests/ft/`` get a second guard: :func:`protocol_reports`
(the default ``verify_modes()``, run once per session and shared with
every test that reads it) must find no mode with a reachable deadlock or
a ULF016-ULF020 violation, or every ft test fails at once with the
counterexample summary — a protocol break is reported at the protocol
level, not as a hang or wrong answer three layers up.
"""

from __future__ import annotations

import pytest

_AUDIT_PATH = "tests/mpi/"
_FT_PATH = "tests/ft/"

#: session caches: the default ``verify_modes()`` reports; the gate's
#: verdict (None = not yet run, [] = clean, else the failure messages)
_protocol_reports = _protocol_problems = None


def protocol_reports():
    """The default ``verify-protocol`` run, computed once per session."""
    global _protocol_reports
    if _protocol_reports is None:
        from repro.analysis.model import verify_modes
        _protocol_reports = verify_modes()
    return _protocol_reports


def _ft_protocol_problems():
    global _protocol_problems
    if _protocol_problems is None:
        from repro.analysis.model import ExtractError, ModelError
        problems = []
        try:
            for rep in protocol_reports():
                if not rep.ok:
                    lines = [f"[{rep.mode}] {v.rule}: {v.message}"
                             for v in rep.result.violations]
                    problems.append(
                        f"{rep.mode} recovery protocol broken "
                        f"({rep.source.name}):\n    " + "\n    ".join(lines))
        except (ExtractError, ModelError) as exc:
            problems.append(f"protocol model extraction failed: {exc}")
        _protocol_problems = problems
    return _protocol_problems


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "allow_races: suppress the automatic message-race audit for tests "
        "that create races on purpose")
    config.addinivalue_line(
        "markers",
        "allow_protocol_break: suppress the ft-layer recovery-protocol "
        "conformance gate for tests that break the protocol on purpose")


@pytest.fixture(autouse=True)
def ft_protocol_conformance(request):
    """Fail ft-layer tests up front when the shipped recovery protocol
    no longer model-checks clean (deadlock or ULF016-ULF020)."""
    nodeid = request.node.nodeid.replace("\\", "/")
    if _FT_PATH in nodeid and \
            request.node.get_closest_marker("allow_protocol_break") is None:
        problems = _ft_protocol_problems()
        if problems:
            pytest.fail("recovery-protocol conformance failed (run "
                        "'repro verify-protocol' for timelines):\n  "
                        + "\n  ".join(problems), pytrace=False)
    yield


@pytest.fixture(autouse=True)
def mpi_runtime_audit(request):
    """Collect every Universe the test creates; audit them, then close."""
    nodeid = request.node.nodeid.replace("\\", "/")
    if _AUDIT_PATH not in nodeid:
        yield
        return

    from repro.mpi.universe import Universe

    created, closing = [], []
    orig_init, orig_close = Universe.__init__, Universe.close

    def recording_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        created.append(self)

    Universe.__init__ = recording_init
    Universe.close = lambda self: closing.append(self)
    try:
        yield
    finally:
        Universe.__init__, Universe.close = orig_init, orig_close

    from .races import find_message_races
    from .runtime import check_runtime_leaks

    problems = []
    for universe in created:
        report = check_runtime_leaks(universe)
        problems.extend(report.errors)
        tracer = universe.tracer
        if tracer is not None and \
                request.node.get_closest_marker("allow_races") is None:
            problems += map(str, find_message_races(tracer,
                                                    allow_truncated=True))
    for universe in closing:
        universe.close()
    if problems:
        pytest.fail("mpi runtime audit failed:\n  "
                    + "\n  ".join(problems), pytrace=False)
