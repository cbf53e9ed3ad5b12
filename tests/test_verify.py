import pytest

from bnchains import serialize
from bnchains import verify as vf
from bnchains.tableaux import BNParams, count_components


def test_sweep_params_bounds():
    params = vf.sweep_params(4)
    assert all(p.g <= 4 and p.rho >= 0 and p.kbar >= 0 for p in params)
    assert BNParams(4, 4, 1) in params
    assert BNParams(4, 2, 1) not in params  # rho = -2


def test_sweep_cap_admits_the_default_sweep():
    # the defaults of verify: 3 geometries, 60 winnability and 15 rank trials
    for g_max in (6, 11):
        vf._check_sweep_size(g_max, 3, 60, 15)
    with pytest.raises(vf.VerifyTooLargeError):
        vf._check_sweep_size(12, 3, 60, 15)
    with pytest.raises(vf.VerifyTooLargeError):
        vf._check_sweep_size(1, 1, vf.SWEEP_WORK_CAP, 1)
    vf._check_sweep_size(1, 1, vf.SWEEP_WORK_CAP - 3, vf.RANK_TRIAL_CAP)
    # rank trials have a cap of their own and are not sweep work
    with pytest.raises(vf.VerifyTooLargeError, match="rank trials"):
        vf._check_sweep_size(1, 1, 0, vf.RANK_TRIAL_CAP + 1)


def test_suite_passes_small():
    result = vf.run_suite(
        g_max=3,
        seed=1,
        geometries_per_param=2,
        oracle_winnability_trials=10,
        oracle_rank_trials=4,
    )
    assert result.passed, result.failures
    assert result.checks_run > 20


def test_suite_detects_tampered_closed_form(monkeypatch):
    # a wrong closed form must be caught with the (i, s) locus reported
    from bnchains import effective

    original = effective.effective_vanishing_from_tableau

    def tampered(t, i):
        seq = original(t, i)
        if i == t.params.g and t.params.r >= 1:
            from bnchains.elliptic import VanishingSequence

            orders = list(seq.orders)
            orders[0] += 1
            return VanishingSequence(tuple(orders))
        return seq

    monkeypatch.setattr(vf, "effective_vanishing_from_tableau", tampered)
    result = vf.run_suite(
        g_max=2,
        seed=1,
        geometries_per_param=1,
        oracle_winnability_trials=0,
        oracle_rank_trials=0,
    )
    assert not result.passed
    assert any("(i=" in f.detail for f in result.failures)
    assert any("tableau" in f.reproducer for f in result.failures)


def test_suite_detects_wrong_rank(monkeypatch):
    # rank is certified at every genus, past the default verify --g-max 6
    original = vf.tropical_rank
    monkeypatch.setattr(
        vf, "tropical_rank", lambda geom, divisor: original(geom, divisor) + (geom.g == 7)
    )
    result = vf.run_suite(
        g_max=7,
        seed=1,
        geometries_per_param=1,
        oracle_winnability_trials=0,
        oracle_rank_trials=0,
    )
    assert {f.check for f in result.failures} == {"rank certification"}
    g7 = [p for p in vf.sweep_params(7) if p.g == 7]
    assert len(result.failures) == sum(count_components(p) for p in g7)
    for failure in result.failures:
        repro = failure.reproducer
        assert repro["tableau"]["g"] == 7
        assert set(repro) == {"tableau", "geometry", "seed"}
    # the reproducer is the check's input: one call replays the failure
    t = serialize.tableau_from_obj(repro["tableau"])
    geom = serialize.geometry_from_obj(repro["geometry"])
    check, detail, _ = vf._tableau_failure(t, [geom], repro["seed"])
    assert (check, detail) == (failure.check, failure.detail)


def test_suite_passes_at_genus_8():
    # every check up to genus 8, rank certification included, with the defaults
    result = vf.run_suite(8, 0)
    assert result.passed, result.failures
    assert result.checks_run == 1_848
    assert result.checks_run == 75 + sum(1 + count_components(p) for p in vf.sweep_params(8))


def test_random_generic_geometry_is_generic():
    import random

    from bnchains import check_genericity

    rng = random.Random(3)
    for g in (1, 2, 4, 6):
        geom = vf.random_generic_geometry(g, rng)
        assert geom.g == g
        assert check_genericity(geom).generic
