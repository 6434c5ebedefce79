"""Smoke-level protocol conformance of the ft layer.

The pytest plugin (:mod:`repro.analysis.pytest_plugin`) gates every
test under ``tests/ft/`` on the model verifier: the shipped CR/RC/AC
recovery skeletons — with the real :mod:`repro.ft.reconstruct` repair
inlined — must model-check deadlock-free before ft tests run.  These
tests pin that wiring itself.
"""

import pytest

from repro.analysis import pytest_plugin


def test_conformance_gate_ran_and_is_clean():
    # the autouse fixture already ran for this very test; its cached
    # verdict must exist and be clean
    assert pytest_plugin._protocol_problems == []


def test_verifier_inlines_real_reconstruct(verify_reports):
    """The verified models must exercise the actual repair pipeline:
    failure placements were explored and survived for every mode."""
    for rep in verify_reports:
        assert rep.ok
        assert rep.result.kills_explored >= 1
        assert rep.result.terminals >= 1


class _FakeNode:
    nodeid = "tests/ft/test_whatever.py::test_case"

    @staticmethod
    def get_closest_marker(name):
        return None


class _FakeRequest:
    node = _FakeNode()


def test_gate_fails_ft_tests_when_protocol_broken(monkeypatch):
    monkeypatch.setattr(pytest_plugin, "_protocol_problems",
                        ["CR recovery protocol broken (cr_parent)"])
    gen = pytest_plugin.ft_protocol_conformance.__wrapped__(_FakeRequest())
    with pytest.raises(pytest.fail.Exception) as exc:
        next(gen)
    msg = str(exc.value)
    assert "verify-protocol" in msg
    assert "cr_parent" in msg


def test_gate_skips_non_ft_tests(monkeypatch):
    monkeypatch.setattr(pytest_plugin, "_protocol_problems", ["broken"])

    class Node(_FakeNode):
        nodeid = "tests/mpi/test_p2p.py::test_case"

    class Req:
        node = Node()

    gen = pytest_plugin.ft_protocol_conformance.__wrapped__(Req())
    next(gen)  # must not raise
