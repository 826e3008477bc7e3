import numpy as np
import pytest

from bicomm.evaluation import EvalRecord, misclassification_rate, success_rate


def test_misclassification_basic():
    t = [1, 1, 0, 0]
    assert misclassification_rate(t, [1, 1, 0, 0]) == 0.0
    assert misclassification_rate(t, [0, 0, 1, 1]) == 0.0   # renamed groups
    assert misclassification_rate(t, [1, 0, 0, 0]) == 0.25
    assert misclassification_rate(t, [1, 0, 1, 0]) == 0.5


def test_misclassification_symmetries():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        t = (rng.random(n) < 0.5).astype(np.int8)
        e = (rng.random(n) < 0.5).astype(np.int8)
        r = misclassification_rate(t, e)
        assert 0.0 <= r <= 0.5
        assert misclassification_rate(e, t) == r
        assert misclassification_rate(1 - t, e) == r
        assert misclassification_rate(t, 1 - e) == r


def test_misclassification_length_mismatch():
    with pytest.raises(ValueError):
        misclassification_rate([1, 0], [1, 0, 0])


def test_success_boundary_is_inclusive():
    on_edge = EvalRecord(eps_criterion=0.11, eps_d=0.10, eps_w_min=0.2,
                         eps_w_max=0.2, psi=0.1)
    assert on_edge.success
    over = EvalRecord(eps_criterion=0.111, eps_d=0.10, eps_w_min=0.2,
                      eps_w_max=0.2, psi=0.1)
    assert not over.success


def test_success_when_everything_is_zero():
    rec = EvalRecord(eps_criterion=0.0, eps_d=0.0, eps_w_min=0.0,
                     eps_w_max=0.0, psi=0.0)
    assert rec.success


def test_success_monotone_in_psi():
    fails = EvalRecord(eps_criterion=0.3, eps_d=0.1, eps_w_min=0.1,
                       eps_w_max=0.1, psi=0.1)
    assert not fails.success
    passes = EvalRecord(eps_criterion=0.3, eps_d=0.1, eps_w_min=0.1,
                        eps_w_max=0.1, psi=2.0)
    assert passes.success


def test_record_validation():
    with pytest.raises(ValueError):
        EvalRecord(eps_criterion=0.6, eps_d=0.1, eps_w_min=0.1, eps_w_max=0.1)
    with pytest.raises(ValueError):
        EvalRecord(eps_criterion=0.1, eps_d=-0.1, eps_w_min=0.1, eps_w_max=0.1)
    with pytest.raises(ValueError):
        EvalRecord(eps_criterion=0.1, eps_d=0.1, eps_w_min=0.1, eps_w_max=0.1,
                   psi=-0.5)


@pytest.mark.parametrize("psi", [float("nan"), float("inf"), -0.5])
def test_record_rejects_a_psi_that_is_not_finite_and_nonnegative(psi):
    with pytest.raises(ValueError, match="psi must be finite and >= 0"):
        EvalRecord(eps_criterion=0.1, eps_d=0.1, eps_w_min=0.1, eps_w_max=0.1,
                   psi=psi)


def test_success_rate_aggregates():
    good = EvalRecord(eps_criterion=0.1, eps_d=0.1, eps_w_min=0.3,
                      eps_w_max=0.3)
    bad = EvalRecord(eps_criterion=0.3, eps_d=0.1, eps_w_min=0.3,
                     eps_w_max=0.3)
    assert success_rate([good, bad, good]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        success_rate([])
    with pytest.raises(ValueError):
        success_rate([good, EvalRecord(eps_criterion=0.1, eps_d=0.1,
                                       eps_w_min=0.1, eps_w_max=0.1, psi=0.2)])
