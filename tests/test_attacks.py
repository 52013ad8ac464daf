import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from robustdata import attacks
from robustdata import autodiff as ad
from robustdata.attacks import (
    AttackConfig,
    attack_for_dataset,
    attack_gradient,
    closed_form_linear_robust_accuracy,
    pgd_attack,
    project_to_ball,
    robust_accuracy,
)
from robustdata.autodiff import Tensor
from robustdata.dataset import Dataset
from robustdata.errors import ContractError, NonFiniteError, ParameterError
from robustdata.evaluation import model_factory
from robustdata.learning import RobustLearnConfig, learn_robust_dataset
from robustdata.models import LinearClassifier, MlpClassifier, TrainConfig, accuracy, batch_loss_graph, sgd_train
from robustdata.rng import RngStream
from robustdata.theory import DistributionSpec, sample


def test_config_validation():
    with pytest.raises(ParameterError):
        AttackConfig(eps=0.0)
    with pytest.raises(ParameterError):
        AttackConfig(eps=0.1, steps=0)
    with pytest.raises(ParameterError):
        AttackConfig(norm="l1", eps=0.1)
    cfg = AttackConfig(eps=0.5)
    assert cfg.alpha == pytest.approx(0.05)


def test_inverted_clamp_rejected():
    # np.clip with low > high would set every coordinate to the second bound
    with pytest.raises(ParameterError, match="invalid clamp"):
        AttackConfig(eps=0.1, clamp=(1.0, -1.0))
    assert AttackConfig(eps=0.1, clamp=(0.5, 0.5)).clamp == (0.5, 0.5)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_identity_inside_ball():
    cfg = AttackConfig(norm="linf", eps=0.5)
    x = np.array([0.1, -0.2])
    np.testing.assert_array_equal(project_to_ball(x, np.zeros(2), cfg), x)


def test_project_linf_per_coordinate():
    cfg = AttackConfig(norm="linf", eps=0.1)
    out = project_to_ball(np.array([0.5, -0.05]), np.zeros(2), cfg)
    np.testing.assert_allclose(out, [0.1, -0.05])


def test_project_l2_radial_rescale():
    cfg = AttackConfig(norm="l2", eps=1.0)
    out = project_to_ball(np.array([3.0, 4.0]), np.zeros(2), cfg)
    np.testing.assert_allclose(out, [0.6, 0.8])


def test_project_l2_rowwise_on_batches():
    cfg = AttackConfig(norm="l2", eps=1.0)
    x = np.array([[3.0, 4.0], [0.1, 0.0]])
    out = project_to_ball(x, np.zeros((2, 2)), cfg)
    np.testing.assert_allclose(out, [[0.6, 0.8], [0.1, 0.0]])


def test_project_shape_mismatch():
    cfg = AttackConfig(norm="linf", eps=0.1)
    with pytest.raises(ContractError):
        project_to_ball(np.zeros(3), np.zeros(2), cfg)


def test_project_applies_value_range_after_ball():
    cfg = AttackConfig(norm="linf", eps=0.5, clamp=(0.0, 1.0))
    out = project_to_ball(np.array([1.4, -0.4]), np.array([1.0, 0.0]), cfg)
    np.testing.assert_allclose(out, [1.0, 0.0])


def test_project_is_idempotent():
    # centers are dataset rows, so they always lie inside the value range
    rng = RngStream(77)
    for norm in ("linf", "l2"):
        cfg = AttackConfig(norm=norm, eps=0.37, clamp=(-1.5, 1.5))
        center = np.clip(rng.normal(0, 1, (16, 4)), -1.5, 1.5)
        x = rng.normal(0, 2, (16, 4))
        once = project_to_ball(x, center, cfg)
        twice = project_to_ball(once, center, cfg)
        np.testing.assert_allclose(twice, once, atol=1e-12)


# ---------------------------------------------------------------------------
# pgd
# ---------------------------------------------------------------------------


def test_pgd_zero_gradient_leaves_input():
    model = LinearClassifier(np.zeros(3))
    X = np.array([[1.0, 2.0, 3.0]])
    out = pgd_attack(model, X, np.array([1]), AttackConfig(norm="linf", eps=0.5, steps=5))
    np.testing.assert_array_equal(out, X)


def test_pgd_single_step_is_fgsm():
    w = np.array([1.0, -2.0, 0.0])
    model = LinearClassifier(w)
    X = np.array([[0.1, 0.2, 0.3]])
    y = np.array([1])
    cfg = AttackConfig(norm="linf", eps=0.25, alpha=0.25, steps=1)
    out = pgd_attack(model, X, y, cfg)
    np.testing.assert_allclose(out, X - 0.25 * np.sign(y[:, None] * w[None, :]))


def test_pgd_attains_corner_maximum_d8():
    rng = RngStream(31)
    d = 8
    w = rng.normal(0, 1, (d,))
    model = LinearClassifier(w)
    X = rng.normal(0, 1, (6, d))
    y = np.where(rng.uniform(0, 1, 6) < 0.5, 1, -1)
    for steps in (1, 3, 10):
        cfg = AttackConfig(norm="linf", eps=0.3, alpha=0.3 / steps, steps=steps)
        x_adv = pgd_attack(model, X, y, cfg)
        corners = 0.3 * np.array(list(itertools.product([-1, 1], repeat=d)))
        for i in range(X.shape[0]):
            attained = max(0.0, 1.0 - y[i] * float(x_adv[i] @ w))
            best = float(np.max(np.maximum(0.0, 1.0 - y[i] * ((X[i][None, :] + corners) @ w))))
            assert attained == pytest.approx(best, abs=1e-9)


def test_pgd_oracle_equivalence_from_flat_start():
    # clean margin above 1 (hinge flat): the attack must still reach the corner value
    w = np.array([2.0, 1.0])
    model = LinearClassifier(w)
    X = np.array([[2.0, 1.0]])  # margin 5, well into the flat region
    y = np.array([1])
    cfg = AttackConfig(norm="linf", eps=3.0, steps=10)
    x_adv = pgd_attack(model, X, y, cfg)
    attained = max(0.0, 1.0 - float(y[0] * x_adv[0] @ w))
    closed = max(0.0, 1.0 - float(y[0] * X[0] @ w) + 3.0 * np.abs(w).sum())
    assert attained == pytest.approx(closed, abs=1e-9)


def test_pgd_l2_single_full_step_is_optimal_on_linear():
    # alpha = eps, one step: the normalized-gradient move is the exact l2
    # worst case for a linear model (margin drops by eps * ||w||_2)
    rng = RngStream(34)
    w = rng.normal(0, 1, (6,))
    model = LinearClassifier(w)
    X = rng.normal(0, 1, (8, 6))
    y = np.where(rng.uniform(0, 1, 8) < 0.5, 1, -1)
    cfg = AttackConfig(norm="l2", eps=0.7, alpha=0.7, steps=1)
    x_adv = pgd_attack(model, X, y, cfg)
    margins_before = y * (X @ w)
    margins_after = y * (x_adv @ w)
    np.testing.assert_allclose(margins_after, margins_before - 0.7 * np.linalg.norm(w), atol=1e-9)


def test_pgd_feasibility_linf_and_l2():
    rng = RngStream(32)
    model = MlpClassifier.init([4, 8, 2], rng)
    X = rng.normal(0, 1, (20, 4))
    y = np.where(rng.uniform(0, 1, 20) < 0.5, 1, -1)
    for norm in ("linf", "l2"):
        cfg = AttackConfig(norm=norm, eps=0.4, steps=7, clamp=(-2.0, 2.0))
        x_adv = pgd_attack(model, X, y, cfg)
        if norm == "linf":
            assert np.max(np.abs(x_adv - X)) <= 0.4 + 1e-9
        else:
            assert np.max(np.linalg.norm(x_adv - X, axis=1)) <= 0.4 + 1e-9
        assert x_adv.min() >= -2.0 - 1e-12 and x_adv.max() <= 2.0 + 1e-12


def test_pgd_loss_does_not_decrease_single_step():
    rng = RngStream(33)
    w = rng.normal(0, 1, (5,))
    model = LinearClassifier(w)
    X = rng.normal(0, 1, (10, 5))
    y = np.where(rng.uniform(0, 1, 10) < 0.5, 1, -1)
    cfg = AttackConfig(norm="linf", eps=0.2, alpha=0.2, steps=1)
    x_adv = pgd_attack(model, X, y, cfg)
    before = batch_loss_graph(model, [Tensor(w)], Tensor(X), y, 0.0).item()
    after = batch_loss_graph(model, [Tensor(w)], Tensor(x_adv), y, 0.0).item()
    assert after >= before - 1e-12


# ---------------------------------------------------------------------------
# closed-form hinge attack gradient
# ---------------------------------------------------------------------------


def tape_hinge_gradient(w, X, y):
    """Reference: d/dX of the unclamped surrogate -sum(y * (X @ w)) on the tape."""
    leaf = Tensor(X)
    margins = ad.mul(ad.constant(np.asarray(y, dtype=np.float64)), ad.matmul(leaf, Tensor(w)))
    return ad.backward(ad.neg(ad.tsum(margins)), [leaf])[0].data


def tape_attack_gradient(model, params_arrays, X, y):
    assert isinstance(model, LinearClassifier)
    (w,) = params_arrays
    return tape_hinge_gradient(w, X, y)


# exact zeros are drawn often, so -y * 0 must match the tape's signed zero
finite_entries = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))


@st.composite
def hinge_cases(draw):
    d = draw(st.integers(1, 32))
    w = draw(hnp.arrays(np.float64, d, elements=finite_entries))
    if draw(st.booleans()):  # one point as a 1-D row with a scalar label
        X = draw(hnp.arrays(np.float64, d, elements=finite_entries))
        y = np.int64(draw(st.sampled_from([-1, 1])))
    else:
        B = draw(st.integers(1, 64))
        X = draw(hnp.arrays(np.float64, (B, d), elements=finite_entries))
        y = draw(hnp.arrays(np.int64, B, elements=st.sampled_from([-1, 1])))
    return w, X, y


@settings(max_examples=300, deadline=None)
@given(hinge_cases())
def test_closed_form_hinge_gradient_matches_tape(case):
    w, X, y = case
    got = attack_gradient(LinearClassifier(w), [w], X, y)
    ref = tape_hinge_gradient(w, X, y)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))  # signed zeros too


def test_closed_form_hinge_gradient_rejects_multi_param():
    w = np.array([1.0, 0.0])
    with pytest.raises(ParameterError):
        attack_gradient(LinearClassifier(w), [w, w], np.ones((3, 2)), np.array([1, -1, 1]))


def test_learner_unchanged_with_tape_hinge_gradient(monkeypatch):
    rng = RngStream(4)
    train = sample(DistributionSpec(d=20, mu=0.4, p=0.9), 600, rng.child(1))
    cfg = RobustLearnConfig(epochs=2, gamma=0.05, beta=0.01, attack=AttackConfig(norm="linf", eps=0.8, steps=10))
    factory = model_factory("linear", 21)
    closed, closed_trace = learn_robust_dataset(train, factory, cfg, RngStream(9))
    monkeypatch.setattr(attacks, "attack_gradient", tape_attack_gradient)
    taped, taped_trace = learn_robust_dataset(train, factory, cfg, RngStream(9))
    assert np.array_equal(closed.features, taped.features)
    assert closed_trace == taped_trace


def test_pgd_hinge_rejects_non_finite_rows_and_weights():
    model = LinearClassifier(np.array([1.0, -1.0, 0.5]))
    X = np.zeros((4, 3))
    y = np.array([1, -1, 1, -1])
    cfg = AttackConfig(norm="linf", eps=0.3, steps=3)
    X[2] = np.nan
    with pytest.raises(NonFiniteError):
        pgd_attack(model, X, y, cfg)
    model.set_params([np.array([1.0, np.inf, 0.5])])  # set_params does not validate
    with pytest.raises(NonFiniteError):
        pgd_attack(model, np.zeros((4, 3)), y, cfg)


# ---------------------------------------------------------------------------
# robust accuracy
# ---------------------------------------------------------------------------


def trained_svm(seed=0, d=30, n=4000):
    rng = RngStream(seed)
    spec = DistributionSpec(d=d, mu=4 / np.sqrt(d), p=0.9)
    train = sample(spec, n, rng.child(1))
    test = sample(spec, 4000, rng.child(2))
    model = LinearClassifier.zeros(d + 1)
    sgd_train(model, train, TrainConfig(lr=0.01, momentum=0.9, weight_decay=1e-3, epochs=8, batch_size=128, seed=seed))
    return model, test


def test_vanishing_budget_equals_natural_accuracy():
    model, test = trained_svm()
    nat = accuracy(model, test)
    rob = robust_accuracy(model, test, AttackConfig(norm="linf", eps=1e-9, steps=3))
    assert rob == pytest.approx(nat, abs=1e-12)


def test_robust_never_exceeds_natural():
    model, test = trained_svm()
    nat = accuracy(model, test)
    for eps in (0.05, 0.2, 0.5):
        rob = robust_accuracy(model, test, AttackConfig(norm="linf", eps=eps, steps=5))
        assert rob <= nat + 1e-12


def test_budget_monotonicity():
    model, test = trained_svm()
    budgets = [0.05, 0.1, 0.2, 0.4, 0.8]
    robs = [
        robust_accuracy(model, test, AttackConfig(norm="linf", eps=e, steps=10))
        for e in budgets
    ]
    assert all(a >= b for a, b in zip(robs, robs[1:]))


def test_pgd_matches_closed_form_on_linear_model():
    model, test = trained_svm()
    for eps in (0.1, 0.3, 0.8):
        rob = robust_accuracy(model, test, AttackConfig(norm="linf", eps=eps, steps=10))
        closed = closed_form_linear_robust_accuracy(model, test, eps)
        assert rob == pytest.approx(closed, abs=2e-3)


def test_multiclass_mlp_attack_feasible_and_weaker_than_clean():
    rng = RngStream(55)
    model = MlpClassifier.init([3, 12, 4], rng)
    X = rng.normal(0, 1, (60, 3))
    y = model.predict(X)  # self-consistent labels: clean accuracy 1.0
    ds = Dataset(X, y)
    nat = accuracy(model, ds)
    rob = robust_accuracy(model, ds, AttackConfig(norm="linf", eps=0.5, steps=10))
    assert nat == 1.0
    assert rob <= nat
    x_adv = pgd_attack(model, X, y, AttackConfig(norm="linf", eps=0.5, steps=10))
    assert np.max(np.abs(x_adv - X)) <= 0.5 + 1e-9


def test_robust_accuracy_independent_of_chunking(monkeypatch):
    model, test = trained_svm()
    cfg = AttackConfig(norm="linf", eps=0.3, steps=5)
    big = robust_accuracy(model, test, cfg)
    monkeypatch.setattr(attacks, "CHUNK", 7)
    small = robust_accuracy(model, test, cfg)
    assert small == big


def test_robust_accuracy_attacks_inside_the_value_range():
    # unclamped, the attack leaves the [-0.5, 0.5] box and finds points the dataset cannot hold
    rng = RngStream(61)
    w = rng.normal(0, 1, (6,))
    X = rng.uniform(-0.5, 0.5, (400, 6))
    ds = Dataset(X, np.where(X @ w >= 0, 1, -1), value_range=(-0.5, 0.5))
    model = LinearClassifier(w)
    cfg = AttackConfig(norm="linf", eps=0.2, steps=10)
    assert robust_accuracy(model, ds, cfg) == robust_accuracy(model, ds, attack_for_dataset(cfg, ds))


def test_mlp_attack_same_for_signed_and_index_labels():
    rng = RngStream(62)
    model = MlpClassifier.init([4, 8, 2], rng)
    X = rng.normal(0, 1, (30, 4))
    signed = np.where(rng.uniform(0, 1, 30) < 0.5, 1, -1)
    cfg = AttackConfig(norm="linf", eps=0.3, steps=6)
    a = pgd_attack(model, X, signed, cfg)
    b = pgd_attack(model, X, (signed + 1) // 2, cfg)
    assert np.array_equal(a, b)


def test_lemma1_regime_low_robust_accuracy():
    # d=100 abstraction model: natural training is accurate but not robust
    rng = RngStream(40)
    spec = DistributionSpec(d=100, mu=0.4, p=0.9)
    train = sample(spec, 20000, rng.child(1))
    test = sample(spec, 10000, rng.child(2))
    model = LinearClassifier.zeros(101)
    sgd_train(model, train, TrainConfig(lr=0.01, momentum=0.9, weight_decay=1e-3, epochs=12, batch_size=128, seed=0))
    assert accuracy(model, test) >= 0.98
    rob = robust_accuracy(model, test, AttackConfig(norm="linf", eps=0.8, steps=10))
    assert rob <= 0.02
