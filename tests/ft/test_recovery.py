"""Recovery technique configuration objects."""

import pytest

from repro.ft import (TECHNIQUES, AlternateCombination, CheckpointRestart,
                      ResamplingCopying, technique_by_code)


def test_registry_and_lookup():
    assert set(TECHNIQUES) == {"CR", "RC", "AC"}
    assert isinstance(technique_by_code("cr"), CheckpointRestart)
    assert isinstance(technique_by_code("RC"), ResamplingCopying)
    assert isinstance(technique_by_code("ac"), AlternateCombination)
    with pytest.raises(ValueError):
        technique_by_code("XX")


def test_scheme_shapes():
    assert len(CheckpointRestart().make_scheme(8, 4)) == 7
    assert len(ResamplingCopying().make_scheme(8, 4)) == 11
    assert len(AlternateCombination().make_scheme(8, 4)) == 10
    assert len(AlternateCombination(extra_layers=1).make_scheme(8, 4)) == 9


def test_cr_and_rc_use_classic_coefficients_after_loss():
    for tech in (CheckpointRestart(), ResamplingCopying()):
        scheme = tech.make_scheme(8, 4)
        coeffs = tech.combination_coefficients(scheme, [1, 4])
        assert sum(coeffs.values()) == pytest.approx(1.0)
        assert len([c for c in coeffs.values() if c == 1.0]) == 4
        assert len([c for c in coeffs.values() if c == -1.0]) == 3


def test_ac_recomputes_coefficients_after_loss():
    tech = AlternateCombination()
    scheme = tech.make_scheme(8, 4)
    classic = tech.combination_coefficients(scheme, [])
    after = tech.combination_coefficients(scheme, [1])
    assert after != classic
    assert scheme[1].index not in after
    assert sum(after.values()) == pytest.approx(1.0)


def test_rc_recovery_plan_matches_paper_pairings():
    tech = ResamplingCopying()
    scheme = tech.make_scheme(13, 4)
    assert tech.recovery_plan(scheme, [0]) == [(0, 7)]
    assert tech.recovery_plan(scheme, [7]) == [(7, 0)]
    assert tech.recovery_plan(scheme, [4]) == [(4, 1)]
    assert tech.recovery_plan(scheme, [4, 9]) == [(4, 1), (9, 2)]


def test_rc_conflicting_losses_rejected():
    tech = ResamplingCopying()
    scheme = tech.make_scheme(13, 4)
    with pytest.raises(ValueError):
        tech.recovery_plan(scheme, [0, 7])
    with pytest.raises(ValueError):
        tech.recovery_plan(scheme, [1, 4])
    with pytest.raises(ValueError):
        tech.validate_losses(scheme, [3, 10])


def test_rc_without_duplicates_has_no_diag_source():
    tech = ResamplingCopying()
    # manually built scheme without duplicates (defensive path)
    from repro.sparsegrid import CombinationScheme
    scheme = CombinationScheme(8, 4)
    with pytest.raises(ValueError):
        tech.recovery_plan(scheme, [0])


def test_codes_and_names():
    assert CheckpointRestart().code == "CR"
    assert ResamplingCopying().name == "Resampling and Copying"
    assert AlternateCombination().code == "AC"
    assert "extra_layers=2" in repr(AlternateCombination())
