"""RunMetrics bookkeeping."""

import pytest

from repro.core.metrics import RunMetrics
from repro.ft.reconstruct import ReconstructTimers


def test_absorb_repair_copies_every_field():
    t = ReconstructTimers(iterations=2, failed_ranks=[3, 5])
    spent = {"detect": 1.0, "reconstruct": 2.0, "shrink": 0.5,
             "spawn": 0.7, "merge": 0.1, "agree": 0.3, "solve": 9.0}
    m = RunMetrics()
    m.absorb_repair(t, spent)
    assert m.t_detect == 1.0
    assert m.t_reconstruct == 2.0
    assert m.t_shrink == 0.5 and m.t_spawn == 0.7
    assert m.t_merge == 0.1 and m.t_agree == 0.3
    assert m.reconstruct_iterations == 2
    assert m.failed_ranks == [3, 5]
    assert m.n_failures == 2


def test_app_time_excl_reconstruct():
    m = RunMetrics(t_total=10.0, t_reconstruct=3.0)
    assert m.t_app_excl_reconstruct == pytest.approx(7.0)


def test_to_dict_stringifies_coefficient_keys_and_drops_arrays():
    m = RunMetrics(technique="AC", coefficients={(3, 5): 1.0, (4, 4): -1.0})
    m.combined = object()
    d = m.to_dict()
    assert "combined" not in d
    assert d["coefficients"] == {"(3, 5)": 1.0, "(4, 4)": -1.0}
    assert d["technique"] == "AC"


def test_defaults_are_safe():
    m = RunMetrics()
    import math
    assert math.isnan(m.error_l1)
    assert m.lost_gids == []
    assert not m.real_failures
