"""ReconstructTimers: the failure record (the times are spans)."""

from repro.ft.reconstruct import ReconstructTimers


def test_defaults():
    t = ReconstructTimers()
    assert t.failed_ranks == []
    assert t.iterations == 0


def test_holds_only_the_failure_record():
    import dataclasses
    assert [f.name for f in dataclasses.fields(ReconstructTimers)] == [
        "iterations", "failed_ranks"]


def test_independent_instances():
    a = ReconstructTimers()
    b = ReconstructTimers()
    a.failed_ranks.append(1)
    assert b.failed_ranks == []  # no shared mutable default
