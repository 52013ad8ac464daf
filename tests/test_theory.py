import itertools

import numpy as np
import pytest

from robustdata.attacks import AttackConfig, closed_form_linear_robust_accuracy, robust_accuracy
from robustdata.errors import ParameterError
from robustdata.models import LinearClassifier, TrainConfig, accuracy, sgd_train
from robustdata.rng import RngStream
from robustdata.theory import (
    DistributionSpec,
    GAUSSIAN,
    GENERAL_SYMMETRIC,
    ROBUST_STAR,
    SymmetricLaw,
    closed_form_accuracies,
    optimal_linf_perturbation,
    phi,
    sample,
    symmetric_sum_check,
    verify_weight_structure,
)

from gradcheck import monte_carlo_accuracies

NATURAL_TRAIN = TrainConfig(lr=0.01, momentum=0.9, weight_decay=1e-3, epochs=12, batch_size=128, seed=0)
# small constant lr: tight limit cycle at the hinge kink, tails stay pinned
STAR_TRAIN = TrainConfig(lr=0.002, momentum=0.9, weight_decay=1e-3, epochs=40, batch_size=128, seed=0)


def test_spec_validation():
    with pytest.raises(ParameterError):
        DistributionSpec(d=0)
    with pytest.raises(ParameterError):
        DistributionSpec(d=5, p=0.4)
    with pytest.raises(ParameterError):
        DistributionSpec(d=5, mode="bogus")
    with pytest.raises(ParameterError):
        DistributionSpec(d=5, mu=1.5, mode=GENERAL_SYMMETRIC)


@pytest.mark.parametrize("mu, mode", [(np.inf, GAUSSIAN), (-np.inf, GAUSSIAN), (np.nan, GAUSSIAN),
                                      (np.nan, GENERAL_SYMMETRIC)])
def test_spec_rejects_non_finite_mu(mu, mode):
    # each was accepted, and sample then failed with "features contain NaN or Inf";
    # NaN passed the general-symmetric check, since abs(nan) > 1.0 is False
    with pytest.raises(ParameterError, match="mu must be finite"):
        DistributionSpec(d=5, mu=mu, mode=mode)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_robust_star_tail_is_constant_one():
    spec = DistributionSpec(d=6, mu=0.3, p=0.8, mode=ROBUST_STAR)
    ds = sample(spec, 50, RngStream(1))
    np.testing.assert_array_equal(ds.features[:, 1:], np.ones((50, 6)))


def test_sample_degenerate_p_one():
    spec = DistributionSpec(d=4, mu=0.3, p=1.0)
    ds = sample(spec, 10**4, RngStream(2))
    np.testing.assert_array_equal(ds.features[:, 0], ds.labels.astype(float))


def test_sample_weak_feature_means():
    spec = DistributionSpec(d=8, mu=0.4, p=0.9)
    ds = sample(spec, 10**5, RngStream(3))
    y = ds.labels.astype(float)
    corr = (ds.features[:, 1:] * y[:, None]).mean(axis=0)
    assert np.all(np.abs(corr - 0.4) <= 0.01)


def test_sample_labels_balanced():
    ds = sample(DistributionSpec(d=2, mu=0.1, p=0.9), 10**5, RngStream(4))
    assert abs(ds.labels.mean()) <= 0.02


def test_sample_general_symmetric_means():
    for law in ("uniform", "laplace"):
        spec = DistributionSpec(d=5, mu=0.3, p=0.9, mode=GENERAL_SYMMETRIC, law=law)
        ds = sample(spec, 10**5, RngStream(5))
        y = ds.labels.astype(float)
        corr = (ds.features[:, 1:] * y[:, None]).mean(axis=0)
        assert np.all(np.abs(corr - 0.3) <= 0.02)


def test_sample_deterministic():
    spec = DistributionSpec(d=3, mu=0.2, p=0.8)
    a = sample(spec, 100, RngStream(6))
    b = sample(spec, 100, RngStream(6))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


# ---------------------------------------------------------------------------
# optimal perturbation (Lemma-2 form)
# ---------------------------------------------------------------------------


def test_optimal_perturbation_direct_formula():
    # delta = -eps * sign(y*w): every coordinate has magnitude eps
    delta = optimal_linf_perturbation(np.array([1.0, -2.0]), 1, 0.1)
    np.testing.assert_allclose(delta, [-0.1, 0.1])


def test_optimal_perturbation_zero_coordinate():
    delta = optimal_linf_perturbation(np.array([1.0, 0.0]), -1, 0.5)
    np.testing.assert_allclose(delta, [0.5, 0.0])


def test_optimal_perturbation_beats_all_corners():
    rng = RngStream(7)
    for _ in range(200):
        d = int(rng.integers(1, 10))
        w = rng.normal(0, 1, (d + 1,))
        x = rng.normal(0, 1, (d + 1,))
        y = 1 if rng.uniform(0, 1, ()) < 0.5 else -1
        eps = float(rng.uniform(0.05, 1.2, ()))
        delta = optimal_linf_perturbation(w, y, eps)
        attained = max(0.0, 1.0 - y * float(np.dot(w, x + delta)))
        corners = eps * np.array(list(itertools.product([-1, 1], repeat=d + 1)))
        best = float(np.max(np.maximum(0.0, 1.0 - y * ((x[None, :] + corners) @ w))))
        assert attained == pytest.approx(best, abs=1e-9)
        assert attained == pytest.approx(
            max(0.0, 1.0 - y * float(np.dot(w, x)) + eps * np.abs(w).sum()), abs=1e-9
        )


# ---------------------------------------------------------------------------
# closed-form accuracies
# ---------------------------------------------------------------------------


def test_closed_form_strong_only_classifier():
    spec = DistributionSpec(d=10, mu=0.3, p=0.85)
    w = np.zeros(11)
    w[0] = 1.0
    nat, rob = closed_form_accuracies(w, spec, 0.5)
    assert nat == pytest.approx(0.85)
    assert rob == pytest.approx(0.85)


def test_closed_form_strong_only_fails_past_budget_one():
    spec = DistributionSpec(d=10, mu=0.3, p=0.85)
    w = np.zeros(11)
    w[0] = 1.0
    _, rob = closed_form_accuracies(w, spec, 1.5)
    assert rob == 0.0


def test_closed_form_equal_weights_bound():
    # equal weights, mu = 4/sqrt(d), eps = 2 mu: robust accuracy below phi(-3)
    for d in (16, 64, 100):
        mu = 4 / np.sqrt(d)
        spec = DistributionSpec(d=d, mu=mu, p=0.9)
        w = np.ones(d + 1)
        _, rob = closed_form_accuracies(w, spec, 2 * mu)
        assert rob <= phi(-3.0) + 1e-12


def test_closed_form_rejects_negative_tail():
    spec = DistributionSpec(d=4, mu=0.3, p=0.9)
    w = np.concatenate([[1.0], -np.ones(4)])
    with pytest.raises(ParameterError):
        closed_form_accuracies(w, spec, 0.5)


def test_closed_form_matches_monte_carlo():
    rng = RngStream(8)
    for i in range(4):
        d = int(rng.integers(5, 40))
        spec = DistributionSpec(
            d=d, mu=float(rng.uniform(0.05, 0.6, ())), p=float(rng.uniform(0.55, 0.99, ()))
        )
        w = np.concatenate([[float(rng.uniform(0, 2, ()))], np.full(d, float(rng.uniform(0.01, 1, ())))])
        eps = float(rng.uniform(0.05, 1.0, ()))
        cf = closed_form_accuracies(w, spec, eps)
        mc = monte_carlo_accuracies(w, spec, eps, 10**6, rng.child(i))
        assert cf[0] == pytest.approx(mc[0], abs=0.005)
        assert cf[1] == pytest.approx(mc[1], abs=0.005)


# ---------------------------------------------------------------------------
# weight structure
# ---------------------------------------------------------------------------


def test_structure_strong_only_pattern():
    w = np.zeros(11)
    w[0] = 1.0
    report = verify_weight_structure(w, 10)
    assert report.tail_vanishing
    assert not report.ordering  # w1 < sqrt(d) * 0 fails, as it should for robust weights


def test_structure_lemma_pattern():
    d = 16
    w = np.concatenate([[0.1], np.full(d, 0.2)])
    report = verify_weight_structure(w, d)
    assert report.ordering
    assert report.tail_equal
    assert report.nonnegative


def test_structure_from_natural_training():
    rng = RngStream(9)
    spec = DistributionSpec(d=100, mu=0.4, p=0.9)
    train = sample(spec, 20000, rng.child(1))
    model = LinearClassifier.zeros(101)
    sgd_train(model, train, NATURAL_TRAIN)
    report = verify_weight_structure(model.w, 100)
    assert report.tail_cv <= 0.2
    assert report.tail_min >= -1e-3
    assert report.w1 < 1.1 * np.sqrt(100) * report.tail_mean


# ---------------------------------------------------------------------------
# symmetric sums
# ---------------------------------------------------------------------------


def test_symmetric_sum_two_uniforms():
    report = symmetric_sum_check(
        [SymmetricLaw("uniform"), SymmetricLaw("uniform")], 10**6, RngStream(10)
    )
    assert report.symmetric


def test_symmetric_sum_gaussian_plus_laplace_with_means():
    report = symmetric_sum_check(
        [SymmetricLaw("gaussian", 0.3), SymmetricLaw("laplace", -0.2)], 10**6, RngStream(11)
    )
    assert abs(report.skewness) <= 0.05


def test_symmetric_sum_single_gaussian():
    report = symmetric_sum_check([SymmetricLaw("gaussian")], 10**6, RngStream(12))
    assert report.symmetric


# ---------------------------------------------------------------------------
# separation: natural data is not robust, the constructed dataset is
# ---------------------------------------------------------------------------


def separation_run(mode: str, law: str = "gaussian", d: int = 100, seed: int = 0):
    rng = RngStream(seed)
    if mode == GENERAL_SYMMETRIC:
        spec = DistributionSpec(d=d, mu=0.4, p=0.9, mode=GENERAL_SYMMETRIC, law=law)
    else:
        spec = DistributionSpec(d=d, mu=0.4, p=0.9)
    star = DistributionSpec(d=d, mu=0.4, p=0.9, mode=ROBUST_STAR)
    train_nat = sample(spec, 20000, rng.child(1))
    train_star = sample(star, 20000, rng.child(2))
    test = sample(spec, 10000, rng.child(3))

    nat_model = LinearClassifier.zeros(d + 1)
    sgd_train(nat_model, train_nat, NATURAL_TRAIN)
    star_model = LinearClassifier.zeros(d + 1)
    sgd_train(star_model, train_star, STAR_TRAIN)
    return nat_model, star_model, test


def test_separation_gaussian():
    nat_model, star_model, test = separation_run("gaussian")
    rng = RngStream(100)
    rob_nat = robust_accuracy(nat_model, test, AttackConfig(norm="linf", eps=0.8, steps=10))
    assert rob_nat <= 0.02
    for eps in (0.3, 0.6, 0.9):
        rob_star = robust_accuracy(star_model, test, AttackConfig(norm="linf", eps=eps, steps=10))
        assert rob_star >= 0.9 - 0.02


def test_separation_general_symmetric_laws():
    for law in ("uniform", "laplace"):
        nat_model, star_model, test = separation_run(GENERAL_SYMMETRIC, law=law)
        rob_nat = closed_form_linear_robust_accuracy(nat_model, test, 0.8)
        rob_star = closed_form_linear_robust_accuracy(star_model, test, 0.8)
        assert rob_nat <= 0.02, law
        assert rob_star >= 0.9 - 0.02, law


def test_closed_form_agrees_with_attack_on_trained_model():
    rng = RngStream(13)
    spec = DistributionSpec(d=100, mu=0.4, p=0.9)
    train = sample(spec, 20000, rng.child(1))
    test = sample(spec, 10**5, rng.child(2))
    model = LinearClassifier.zeros(101)
    sgd_train(model, train, NATURAL_TRAIN)
    for eps in (0.4, 0.8):
        cf_nat, cf_rob = closed_form_accuracies(model.w, spec, eps)
        emp_nat = accuracy(model, test)
        emp_rob = robust_accuracy(model, test, AttackConfig(norm="linf", eps=eps, steps=10))
        assert cf_nat == pytest.approx(emp_nat, abs=0.01)
        assert cf_rob == pytest.approx(emp_rob, abs=0.01)
