import gc
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from robustdata import attacks
from robustdata import autodiff as ad
from robustdata.attacks import (
    AttackConfig,
    adversarial_chunks,
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
from robustdata.learning import RobustLearnConfig, baseline_adv_dataset, learn_robust_dataset
from robustdata.models import (
    LinearClassifier,
    MlpClassifier,
    TrainConfig,
    accuracy,
    batch_loss_graph,
    sgd_train,
)
from robustdata.rng import RngStream
from robustdata.theory import DistributionSpec, sample

from gradcheck import neg, tape_margins, true_class_log_probs


def test_config_validation():
    with pytest.raises(ParameterError):
        AttackConfig(eps=0.0)
    with pytest.raises(ParameterError):
        AttackConfig(eps=0.1, steps=0)
    with pytest.raises(ParameterError):
        AttackConfig(norm="l1", eps=0.1)
    cfg = AttackConfig(eps=0.5)
    assert cfg.alpha == pytest.approx(0.05)


@pytest.mark.parametrize("field", ["eps", "alpha"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_eps_and_alpha_rejected(field, value):
    # `value <= 0` is False for NaN and inf, so a positivity check alone lets them through
    with pytest.raises(ParameterError, match=field):
        AttackConfig(**{"eps": 0.1, field: value})


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
    return ad.backward(neg(ad.tsum(tape_margins(leaf, Tensor(w), y))), [leaf])[0].data


def tape_mlp_gradient(model, params_arrays, X, y):
    """Reference: d/dX of -sum(true-class log-softmax) on the tape."""
    with np.errstate(all="ignore"):
        leaf = Tensor(X)
        params = [Tensor(p) for p in params_arrays]
        objective = neg(ad.tsum(true_class_log_probs(model, params, leaf, y)))
        return ad.backward(objective, [leaf])[0].data


def tape_attack_gradient(model, params_arrays, X, y, network=None):
    """attack_gradient on the tape; a network attack's prepared gradient goes unused."""
    if isinstance(model, LinearClassifier):
        (w,) = params_arrays
        return tape_hinge_gradient(w, X, y)
    return tape_mlp_gradient(model, params_arrays, X, y)


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


def assert_learner_unchanged_with_tape_gradient(monkeypatch, arch):
    rng = RngStream(4)
    train = sample(DistributionSpec(d=20, mu=0.4, p=0.9), 600, rng.child(1))
    cfg = RobustLearnConfig(epochs=2, gamma=0.05, beta=0.01, attack=AttackConfig(norm="linf", eps=0.8, steps=10))
    factory = model_factory(arch, 21)
    closed, closed_trace = learn_robust_dataset(train, factory, cfg, RngStream(9))
    calls = []

    def counted(*args):
        calls.append(1)
        return tape_attack_gradient(*args)

    monkeypatch.setattr(attacks, "attack_gradient", counted)
    taped, taped_trace = learn_robust_dataset(train, factory, cfg, RngStream(9))
    assert np.array_equal(closed.features, taped.features)
    assert closed_trace == taped_trace
    # every attack went through the tape gradient: one call per linear attack, one per network step
    attacks_made = cfg.epochs * -(-train.n // cfg.batch_size)
    assert len(calls) == attacks_made * (1 if arch == "linear" else cfg.attack.steps)


def test_learner_unchanged_with_tape_hinge_gradient(monkeypatch):
    assert_learner_unchanged_with_tape_gradient(monkeypatch, "linear")


def test_learner_unchanged_with_tape_mlp_gradient(monkeypatch):
    assert_learner_unchanged_with_tape_gradient(monkeypatch, "mlp:8")


# ---------------------------------------------------------------------------
# closed-form network attack gradient
# ---------------------------------------------------------------------------


# integer values make relu kinks (s == 0) and tied logits common; the floats exercise rounding
mixed_entries = st.one_of(st.integers(-3, 3).map(float), st.floats(-3, 3))


@st.composite
def mlp_cases(draw):
    d, k = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    sizes = [d, *draw(st.lists(st.integers(1, 8), min_size=1, max_size=2)), k]
    weights = [draw(hnp.arrays(np.float64, shape, elements=mixed_entries)) for shape in zip(sizes[:-1], sizes[1:])]
    biases = [draw(hnp.arrays(np.float64, n, elements=mixed_entries)) for n in sizes[1:]]
    # rows and labels are many, so they come from a drawn seed; the rows mix integers and floats
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = draw(st.integers(1, 129))
    X = np.where(rows.random((B, d)) < 0.5, rows.integers(-3, 4, (B, d)), rows.uniform(-3, 3, (B, d)))
    if k == 2 and draw(st.booleans()):
        labels = rows.choice([-1, 1], B)
    else:
        labels = rows.integers(0, k, B)
    model = MlpClassifier(weights, biases)
    return model, X, model.targets(labels)


@settings(max_examples=300, deadline=None)
@given(mlp_cases())
# integer weights and rows put pre-activations exactly at the kink, where the bool mask
# must give relu'(0) = 0, and below it, where h*mask keeps the tape's -0.0; the first
# row has every hidden unit off
@example((MlpClassifier([np.array([[1.0, -1.0, 2.0], [0.0, 1.0, -1.0]]), np.array([[1.0, -2.0], [2.0, 1.0], [-1.0, 1.0]])],
                        [np.array([0.0, -1.0, 0.0]), np.array([0.0, 1.0])]),
          np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 2.0], [2.0, -3.0]]), np.array([0, 1, 1, 0])))
def test_closed_form_mlp_gradient_matches_tape(case):
    model, X, y = case
    got = attack_gradient(model, model.params(), X, y)
    ref = tape_mlp_gradient(model, model.params(), X, y)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))  # signed zeros too


def _outcome(gradient, model, X, y):
    try:
        return gradient(model, model.params(), X, y)
    except NonFiniteError:
        return None


# (hidden layers, weight scale, bias, row value) where the tape raised and the
# closed form returned a finite gradient. There are none: backward forms only the
# adjoints on a path to X, so the first layer's weight adjoint X.T @ g, which
# overflowed at (2, 1.0, 0.0, 1e308), is no longer formed on the tape either.
TAPE_ONLY_RAISES: set[tuple] = set()


@pytest.mark.parametrize("hidden", [1, 2])
def test_closed_form_mlp_gradient_non_finite_parity(hidden):
    base = MlpClassifier.init([3, *[4] * hidden, 3 - hidden % 2], RngStream(4 + hidden))
    grid = itertools.product(
        (1.0, 1e10, 1e100, 1e154, 1e300, 1e308), (0.0, 1e308), (0.0, 1.0, -1.0, 1e308, -1e308, 1.7e308, 1.79e308)
    )
    y = np.array([0, 1])
    for scale, bias, x in grid:
        with np.errstate(over="ignore"):  # a weight scaled past 1.8e308 is an infinite leaf
            weights = [W * scale for W in base.weights]
        model = MlpClassifier(weights, [np.full_like(b, bias) for b in base.biases])
        X = x * np.array([[1.0, -0.5, 0.25], [-1.0, 0.5, 0.0]])
        got, ref = _outcome(attack_gradient, model, X, y), _outcome(tape_mlp_gradient, model, X, y)
        case = (hidden, scale, bias, x)
        if case in TAPE_ONLY_RAISES:
            assert ref is None and got is not None and np.isfinite(got).all(), case
        elif ref is None:
            assert got is None, case
        else:
            assert got is not None and np.array_equal(got, ref), case


def test_mlp_attack_builds_no_tape(monkeypatch):
    def no_tensor(*args, **kwargs):
        raise AssertionError("a Tensor was built")

    rng = RngStream(37)
    model = MlpClassifier.init([4, 8, 8, 3], rng)
    X = rng.normal(0, 1, (12, 4))
    y = np.array([0, 1, 2] * 4)
    cfg = AttackConfig(norm="linf", eps=0.3, steps=4)
    monkeypatch.setattr(Tensor, "__init__", no_tensor)
    gc.collect()
    gc.disable()
    try:
        attack_gradient(model, model.params(), X, y)
        pgd_attack(model, X, y, cfg)
        assert gc.collect() == 0  # no reference cycles left for the cyclic collector
    finally:
        gc.enable()


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
# the PGD loop against its per-step reference
# ---------------------------------------------------------------------------


def per_step_pgd(model, x_nat, y, cfg):
    """Reference: one attack_gradient call and one project_to_ball call per step."""
    x_nat = np.asarray(x_nat, dtype=np.float64)
    y = model.targets(np.asarray(y))
    x_adv = x_nat.copy()
    params = model.params()
    for _ in range(cfg.steps):
        g = attack_gradient(model, params, x_adv, y)
        if cfg.norm == "linf":
            x_adv = x_adv + cfg.alpha * np.sign(g)
        else:
            norms = np.linalg.norm(g, axis=1, keepdims=True)
            step = np.divide(g, norms, out=np.zeros_like(g), where=norms > 0)
            x_adv = x_adv + cfg.alpha * step
        x_adv = project_to_ball(x_adv, x_nat, cfg)
    if not np.isfinite(x_adv).all():  # the final check pgd_attack makes
        raise NonFiniteError("tensor contains NaN or Inf")
    return x_adv


# exact and signed zeros are drawn often, so sign(0) steps and -0.0 rows are exercised
signed_entries = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-10, 10))


@st.composite
def pgd_cases(draw):
    d = draw(st.integers(1, 6))
    B = draw(st.integers(1, 16))
    X = draw(hnp.arrays(np.float64, (B, d), elements=signed_entries))
    y = draw(hnp.arrays(np.int64, B, elements=st.sampled_from([-1, 1])))
    if draw(st.booleans()):
        model = LinearClassifier(draw(hnp.arrays(np.float64, d, elements=st.one_of(st.just(0.0), st.floats(-3, 3)))))
    else:
        # one or two hidden layers, so a middle layer's scratch arrays are exercised too
        hidden = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))
        model = MlpClassifier.init([d, *hidden, 2], RngStream(draw(st.integers(0, 2**16))))
    clamp = None
    if draw(st.booleans()):  # a box inside the data, so the clamp binds
        clamp = (float(np.quantile(X, 0.25)), float(np.quantile(X, 0.75)))
    cfg = AttackConfig(
        norm=draw(st.sampled_from(["linf", "l2"])),
        eps=10.0 ** draw(st.floats(-3, 1)),
        steps=draw(st.integers(1, 12)),
        clamp=clamp,
    )
    return model, X, y, cfg


@settings(max_examples=200, deadline=None)
@given(pgd_cases())
def test_pgd_matches_per_step_reference(case):
    model, X, y, cfg = case
    got = pgd_attack(model, X, y, cfg)
    ref = per_step_pgd(model, X, y, cfg)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


# signed zeros in w give +-0.0 steps; +-0.0 clamp bounds make the ball and the box meet at a zero
signed_units = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3, 3))


@st.composite
def linear_linf_cases(draw):
    d, B = draw(st.integers(1, 6)), draw(st.integers(1, 16))
    eps = 10.0 ** draw(st.floats(-3, 1))
    # rows and box on eps's scale, so a row outside the box may or may not reach it;
    # the rows are many, so they come from a drawn seed, with exact and signed zeros mixed in
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = rows.choice([0.0, -0.0], (B, d))
    X = np.where(rows.random((B, d)) < 0.2, zeros, rows.uniform(-3, 3, (B, d)) * eps)
    y = rows.choice([-1, 1], B)
    model = LinearClassifier(draw(hnp.arrays(np.float64, d, elements=signed_units)))
    clamp = None
    if draw(st.booleans()):
        clamp = tuple(sorted(bound * eps for bound in draw(st.tuples(signed_units, signed_units))))
    alpha = None if draw(st.booleans()) else eps * draw(st.floats(0.01, 3))  # a step may overshoot the ball
    cfg = AttackConfig(norm="linf", eps=eps, alpha=alpha, steps=draw(st.integers(1, 12)), clamp=clamp)
    return model, X, y, cfg


def linear_linf_example(**cfg):
    """Rows of both signs, exact and signed zeros, and steps of both signs and of zero."""
    model = LinearClassifier(np.array([1.0, -2.0, 0.0, 0.5]))
    X = np.array([[0.3, -0.2, 0.0, 1.1], [-0.7, 0.1, -0.0, 0.45], [0.0, 0.6, 0.2, -0.35]])
    return model, X, np.array([1, -1, 1]), AttackConfig(norm="linf", **{"eps": 0.5, "steps": 10, **cfg})


@settings(max_examples=500, deadline=None)
@given(linear_linf_cases())
# a zero step meets a (-0.0, -0.0) clamp: np.clip keeps +0.0 where a max/min clamp gives -0.0
@example((LinearClassifier(np.array([0.0])), np.array([[0.0]]), np.array([1]),
          AttackConfig(norm="linf", eps=1.0, steps=1, clamp=(-0.0, -0.0))))
@example(linear_linf_example(steps=1))
@example(linear_linf_example(alpha=0.5))  # alpha == eps: the first iterate reaches the ball's bound
@example(linear_linf_example(alpha=0.75))  # alpha = 1.5 * eps with no clamp: the first iterate overshoots
@example(linear_linf_example(clamp=(-5.0, -3.0)))  # a clamp entirely below every ball
@example(linear_linf_example(clamp=(3.0, 5.0)))  # and entirely above
def test_linear_linf_pgd_matches_per_step_reference(case):
    model, X, y, cfg = case
    got = pgd_attack(model, X, y, cfg)
    ref = per_step_pgd(model, X, y, cfg)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("steps", [1, 10])
@pytest.mark.parametrize(
    "alpha, clamp, projections",
    [(None, None, 1), (0.5, None, 1), (0.75, None, 2), (None, (-1.0, 1.0), 2), (0.75, (-1.0, 1.0), 2)],
    ids=["alpha-eps/10", "alpha-eps", "alpha-1.5eps", "clamp", "alpha-1.5eps-clamp"],
)
def test_linear_linf_pgd_projects_once_unless_the_first_iterate_may_leave_the_box(monkeypatch, steps, alpha, clamp,
                                                                                 projections):
    # with no clamp and alpha <= eps the first iterate lies in the ball, and the projection
    # before the last add changes nothing; one attack made three projections
    calls = []
    project = attacks._project_linf
    monkeypatch.setattr(attacks, "_project_linf", lambda *args: calls.append(1) or project(*args))
    model, X, y, cfg = linear_linf_example(steps=steps, alpha=alpha, clamp=clamp)
    got = pgd_attack(model, X, y, cfg)
    assert len(calls) == (1 if steps == 1 else projections)
    assert np.array_equal(got, per_step_pgd(model, X, y, cfg))


# The per-step loop's outcomes on an overflow grid of a linear model: for each
# (norm, clamp, eps, row value) that raised NonFiniteError, the smallest step
# count of (1, 2, 10) that raised. Every other case returned a finite array.
# Both sides check the iterate they return, so a last step that overflows raises.
OVERFLOW_CLAMP = (-1e308, 1e308)
PER_STEP_RAISES_FROM = {
    ("linf", None, 1e308, 1e308): 10,
    ("linf", None, 1e308, -1e308): 10,
    ("linf", None, 1e308, 1.7e308): 1,
    ("linf", None, 1e308, -1.7e308): 1,
    ("linf", None, 1e308, 1.79e308): 1,
    ("linf", None, 1.7e308, 1e308): 10,
    ("linf", None, 1.7e308, -1e308): 10,
    ("linf", None, 1.7e308, 1.7e308): 1,
    ("linf", None, 1.7e308, -1.7e308): 1,
    ("linf", None, 1.7e308, 1.79e308): 1,
    ("l2", None, 1e308, 1.79e308): 1,
    ("l2", None, 1.7e308, 1.7e308): 1,
    ("l2", None, 1.7e308, -1.7e308): 1,
    ("l2", None, 1.7e308, 1.79e308): 1,
    ("l2", OVERFLOW_CLAMP, 1e308, 1.79e308): 1,
    ("l2", OVERFLOW_CLAMP, 1.7e308, 1.7e308): 1,
    ("l2", OVERFLOW_CLAMP, 1.7e308, -1.7e308): 1,
    ("l2", OVERFLOW_CLAMP, 1.7e308, 1.79e308): 1,
}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("norm", ["linf", "l2"])
@pytest.mark.parametrize("clamp", [None, OVERFLOW_CLAMP])
def test_pgd_non_finite_parity(norm, clamp):
    model = LinearClassifier(np.array([1.0, -2.0, 0.0]))
    y = np.array([1, -1])
    grid = itertools.product((1.0, 1e300, 1e308, 1.7e308), (0.0, 1e308, -1e308, 1.7e308, -1.7e308, 1.79e308), (1, 2, 10))
    for eps, x, steps in grid:
        cfg = AttackConfig(norm=norm, eps=eps, steps=steps, clamp=clamp)
        X = np.full((2, 3), x)
        if steps >= PER_STEP_RAISES_FROM.get((norm, clamp, eps, x), np.inf):
            for attack in (pgd_attack, per_step_pgd):
                with pytest.raises(NonFiniteError):
                    attack(model, X, y, cfg)
        else:
            got, ref = pgd_attack(model, X, y, cfg), per_step_pgd(model, X, y, cfg)
            assert np.array_equal(got, ref), (eps, x, steps)


def overflowing_net():
    """A network whose input gradient at rows of 1e308 is finite and lies along feature 0."""
    net = MlpClassifier.init([3, 4, 2], RngStream(0))
    net.weights[0] = net.weights[0] * 1e-300
    net.weights[0][1:] = 0.0
    return net


# (model, norm, row value, steps) whose last add overflows while every earlier iterate is finite
OVERFLOWING_LAST_STEP = {
    "linear-linf": (LinearClassifier(np.array([1.0, -2.0, 0.0])), "linf", 1.7e308, 1),
    "linear-l2": (LinearClassifier(np.array([1.0, -2.0, 0.0])), "l2", 1.79e308, 1),
    "mlp-linf": (overflowing_net(), "linf", 1e308, 8),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_LAST_STEP))
def test_pgd_raises_on_an_overflowing_last_step(case):
    # the attack used to return the inf rows, and robust_accuracy leaked numpy's overflow warning
    model, norm, x, steps = OVERFLOWING_LAST_STEP[case]
    cfg = AttackConfig(norm=norm, eps=1e308, steps=steps)
    data = Dataset(np.full((2, 3), x), np.array([1, -1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            pgd_attack(model, data.features, data.labels, cfg)
        with pytest.raises(NonFiniteError):
            robust_accuracy(model, data, cfg)


def test_linear_attack_takes_one_gradient(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return attack_gradient(*args)

    monkeypatch.setattr(attacks, "attack_gradient", counted)
    rng = RngStream(36)
    X = rng.normal(0, 1, (12, 4))
    y = np.where(rng.uniform(0, 1, 12) < 0.5, 1, -1)
    for norm in ("linf", "l2"):
        cfg = AttackConfig(norm=norm, eps=0.3, steps=7)
        for model, expected in ((LinearClassifier(rng.normal(0, 1, (4,))), 1), (MlpClassifier.init([4, 8, 2], rng), 7)):
            calls.clear()
            pgd_attack(model, X, y, cfg)
            assert len(calls) == expected


@pytest.mark.parametrize("norm", ["linf", "l2"])
def test_network_attack_gradients_outlive_their_step(monkeypatch, norm):
    # a prepared network gradient refills its scratch arrays at every step; what a step
    # returns must be its own array, unchanged by the steps after it
    seen = []

    def recorded(*args):
        g = attack_gradient(*args)
        seen.append((g, g.copy()))
        return g

    monkeypatch.setattr(attacks, "attack_gradient", recorded)
    rng = RngStream(38)
    model = MlpClassifier.init([4, 8, 8, 3], rng)
    X = rng.normal(0, 1, (12, 4))
    y = np.array([0, 1, 2] * 4)
    pgd_attack(model, X, y, AttackConfig(norm=norm, eps=0.3, steps=5))
    assert len(seen) == 5
    for g, at_return in seen:
        assert np.array_equal(g, at_return)
        assert np.array_equal(np.signbit(g), np.signbit(at_return))
    assert not any(np.shares_memory(a, b) for (a, _), (b, _) in itertools.combinations(seen, 2))


def test_network_chunks_match_the_per_step_reference(monkeypatch):
    # each chunk, the short last one too, is attacked with scratch arrays of its own size
    rng = RngStream(39)
    model = MlpClassifier.init([4, 8, 8, 3], rng)
    ds = Dataset(rng.normal(0, 1, (3 * attacks.ROW_BLOCK + 5, 4)), np.arange(3 * attacks.ROW_BLOCK + 5) % 3)
    monkeypatch.setattr(attacks, "CHUNK_BYTES", attacks.ROW_BLOCK * 8 * ds.width)
    cfg = AttackConfig(norm="linf", eps=0.3, steps=6)
    chunks = list(adversarial_chunks(model, ds, cfg))
    assert [len(x_adv) for x_adv, _ in chunks] == [attacks.ROW_BLOCK] * 3 + [5]
    for start, (x_adv, y) in zip(range(0, ds.n, attacks.ROW_BLOCK), chunks):
        ref = per_step_pgd(model, ds.features[start : start + len(x_adv)], y, cfg)
        assert np.array_equal(x_adv, ref)
        assert np.array_equal(np.signbit(x_adv), np.signbit(ref))


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
    # one pgd_attack call over every row is the reference; the default budget and 7-row
    # chunks must give the same bytes, signed zeros included, on both model families
    linear, test = trained_svm()
    cfg = AttackConfig(norm="linf", eps=0.3, steps=5)
    for model in (linear, model_factory("mlp:8-8", test.width)(0)):
        whole = pgd_attack(model, test.features, test.labels, attack_for_dataset(cfg, test))
        whole_acc = int(np.sum(model.predict(whole) == model.targets(test.labels))) / test.n
        for budget in (attacks.CHUNK_BYTES, 7 * 8 * test.width + 5):
            monkeypatch.setattr(attacks, "CHUNK_BYTES", budget)
            assert baseline_adv_dataset(model, test, cfg).features.tobytes() == whole.tobytes()
            assert robust_accuracy(model, test, cfg) == whole_acc


def test_small_network_l2_attack_independent_of_whole_block_chunking(monkeypatch):
    # an l2 step scales with the gradient, whose last bits BLAS rounds by a row's place in its block
    _, test = trained_svm()
    model, cfg = model_factory("mlp:16", test.width)(0), AttackConfig(norm="l2", eps=0.3, steps=5)
    whole = pgd_attack(model, test.features, test.labels, cfg)
    for rows in (attacks.CHUNK_BYTES // (8 * test.width), 3 * attacks.ROW_BLOCK):
        monkeypatch.setattr(attacks, "CHUNK_BYTES", rows * 8 * test.width)
        assert baseline_adv_dataset(model, test, cfg).features.tobytes() == whole.tobytes()


@pytest.mark.parametrize("width", [1, 21, 101, 2000])
def test_attack_chunks_fit_the_byte_budget(monkeypatch, width):
    rng = RngStream(63)
    ds = Dataset(rng.normal(0, 1, (1000, width)), np.where(rng.uniform(0, 1, 1000) < 0.5, 1, -1))
    model, cfg = LinearClassifier(rng.normal(0, 1, (width,))), AttackConfig(norm="linf", eps=0.3, steps=3)
    row_bytes, block = 8 * width, attacks.ROW_BLOCK
    # the default budget keeps every attack's row-sized temporaries under glibc's 128 KiB mmap threshold
    assert attacks.CHUNK_BYTES < 128 * 1024
    for budget in (attacks.CHUNK_BYTES, 1000, row_bytes - 1):
        monkeypatch.setattr(attacks, "CHUNK_BYTES", budget)
        rows = [x_adv.shape[0] for x_adv, _ in adversarial_chunks(model, ds, cfg)]
        size = rows[0]
        assert sum(rows) == ds.n and set(rows[:-1]) <= {size} and rows[-1] <= size
        if size == ds.n:
            continue
        if budget >= block * row_bytes:  # the most whole blocks that fit
            assert size % block == 0 and size * row_bytes <= budget < (size + block) * row_bytes
        else:  # the most rows that fit, and one row wider than the budget is attacked alone
            assert size == max(1, budget // row_bytes)


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


# ---------------------------------------------------------------------------
# lock-step attacks: one pass over a dataset for a list of models
# ---------------------------------------------------------------------------


def assert_lock_step_parity(models, data, cfg):
    """Each model's rows in lock-step are its rows alone, chunk by chunk, and so is its accuracy."""
    alone = [list(adversarial_chunks(model, data, cfg)) for model in models]
    together = list(adversarial_chunks(models, data, cfg))
    assert len(together) == len(alone[0])
    for c, (x_advs, y) in enumerate(together):
        assert len(x_advs) == len(models)
        for m, x_adv in enumerate(x_advs):
            x_ref, y_ref = alone[m][c]
            assert x_adv.tobytes() == x_ref.tobytes()  # signed zeros included
            assert np.array_equal(y, y_ref)
    assert robust_accuracy(models, data, cfg) == [robust_accuracy(model, data, cfg) for model in models]


@st.composite
def lock_step_cases(draw):
    d, B = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    eps = 10.0 ** draw(st.floats(-3, 1))
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = rows.choice([0.0, -0.0], (B, d))
    X = np.where(rows.random((B, d)) < 0.2, zeros, rows.uniform(-3, 3, (B, d)) * eps)
    data = Dataset(X, rows.choice([-1, 1], B))
    k = draw(st.integers(2, 4))
    if draw(st.integers(0, 3)) == 0:
        models = [MlpClassifier.init([d, 4, 2], RngStream(seed)) for seed in range(k)]
    else:
        models = [LinearClassifier(draw(hnp.arrays(np.float64, d, elements=signed_units))) for _ in range(k)]
    clamp = None
    if draw(st.booleans()):
        clamp = tuple(sorted(bound * eps for bound in draw(st.tuples(signed_units, signed_units))))
    alpha = None if draw(st.booleans()) else eps * draw(st.floats(0.01, 3))
    cfg = AttackConfig(norm=draw(st.sampled_from(["linf", "linf", "l2"])), eps=eps, alpha=alpha,
                       steps=draw(st.integers(1, 12)), clamp=clamp)
    chunk_rows = draw(st.integers(1, B))  # several chunks, and a last one that is not full
    return models, data, cfg, chunk_rows * 8 * d


def lock_step_example(ws=((1.0, -2.0, 0.0, 0.5), (-0.5, 3.0, 1.0, -1.0), (2.0, 1.0, -0.25, 4.0)), y=(1, -1, 1),
                      mlp=False, norm="linf", **cfg):
    """Three models on linear_linf_example's rows, which hold exact and signed zeros, in one-row chunks."""
    _, X, _, attack = linear_linf_example(**cfg)
    attack.norm = norm
    if mlp:
        models = [MlpClassifier.init([4, 8, 2], RngStream(seed)) for seed in range(3)]
    else:
        models = [LinearClassifier(np.array(w)) for w in ws]
    return models, Dataset(X, np.array(y)), attack, 8 * X.shape[1]


@settings(max_examples=300, deadline=None)
@given(lock_step_cases())
@example(lock_step_example())  # an exact-zero weight and -0.0 features
@example(lock_step_example(ws=((1.0, -2.0, 3.0, 0.5), (-0.5, 3.0, 1.0, -1.0))))  # no zero weight: two iterates
@example(lock_step_example(clamp=(-5.0, -3.0)))  # a clamp entirely below every ball
@example(lock_step_example(clamp=(3.0, 5.0)))  # and entirely above
@example(lock_step_example(alpha=0.75))  # alpha > eps
@example(lock_step_example(steps=1))
@example(lock_step_example(y=(-1, -1, -1)))  # a chunk with one label only
@example(lock_step_example(mlp=True))
@example(lock_step_example(mlp=True, norm="l2"))
def test_lock_step_attack_matches_each_model_alone(case):
    models, data, cfg, chunk_bytes = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(attacks, "CHUNK_BYTES", chunk_bytes)
        assert_lock_step_parity(models, data, cfg)


def two_linear_models(*ws):
    return [LinearClassifier(np.array(w, dtype=np.float64)) for w in ws]


def test_lock_step_rejects_an_infinite_row_under_a_clamp():
    # the clamp clips the row's iterates to finite values, so only the check of X catches it
    models = two_linear_models([1.0, -2.0], [0.5, 1.0])
    data = Dataset(np.ones((4, 2)), np.array([1, -1, 1, -1]))
    data.features[2, 1] = np.inf  # a Dataset's features may be rewritten after construction
    cfg = AttackConfig(norm="linf", eps=0.5, steps=3, clamp=(-2.0, 2.0))
    for model in [models[0], models]:
        with pytest.raises(NonFiniteError):
            robust_accuracy(model, data, cfg)


@pytest.mark.filterwarnings("ignore:overflow encountered")  # predict's matmul on rows near the float64 limit
def test_lock_step_raises_only_on_a_selected_overflowing_iterate():
    # at 1.7e308 the +alpha iterate overflows and the -alpha one does not; with every
    # weight positive and every label +1, each step is -alpha, so no model selects the overflow
    data = Dataset(np.full((3, 3), 1.7e308), np.array([1, 1, 1]))
    cfg = AttackConfig(norm="linf", eps=1e308, steps=1)
    assert_lock_step_parity(two_linear_models([1.0, 2.0, 0.5], [3.0, 0.25, 1.0]), data, cfg)
    models = two_linear_models([1.0, 2.0, 0.5], [3.0, -0.25, 1.0])  # a negative weight steps +alpha
    with pytest.raises(NonFiniteError):
        pgd_attack(models[1], data.features, data.labels, cfg)
    with pytest.raises(NonFiniteError):
        robust_accuracy(models, data, cfg)


def test_lock_step_rejects_a_non_finite_weight():
    data = Dataset(np.ones((4, 2)), np.array([1, -1, 1, -1]))
    for bad in (np.nan, np.inf):
        models = two_linear_models([1.0, -2.0], [0.5, 1.0])
        models[1].set_params([np.array([bad, 1.0])])
        with pytest.raises(NonFiniteError):
            robust_accuracy(models, data, AttackConfig(norm="linf", eps=0.5, steps=3))


@pytest.mark.parametrize("models", [
    [],
    two_linear_models([1.0, 2.0], [1.0, 2.0, 3.0]),
    [LinearClassifier(np.ones(2)), MlpClassifier.init([2, 4, 2], RngStream(0))],
    [MlpClassifier.init([2, 4, 2], RngStream(0)), MlpClassifier.init([2, 8, 2], RngStream(0))],
], ids=["empty", "linear-widths", "families", "mlp-widths"])
def test_lock_step_takes_models_of_one_architecture(models):
    data = Dataset(np.ones((4, 2)), np.array([1, -1, 1, -1]))
    cfg = AttackConfig(norm="linf", eps=0.5, steps=3)
    with pytest.raises(ParameterError, match="one architecture"):
        robust_accuracy(models, data, cfg)
    with pytest.raises(ParameterError, match="one architecture"):
        list(adversarial_chunks(models, data, cfg))


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("zero_weight", [False, True])
def test_lock_step_linear_linf_builds_two_iterates_per_chunk(monkeypatch, k, zero_weight):
    # the iterates of +alpha and -alpha (and of +0.0, when a weight is an exact zero) serve every model
    calls = []
    one_pass = attacks._linear_linf_pgd
    monkeypatch.setattr(attacks, "_linear_linf_pgd", lambda *args: calls.append(1) or one_pass(*args))
    monkeypatch.setattr(attacks, "pgd_attack", lambda *args: pytest.fail("pgd_attack was called"))
    monkeypatch.setattr(attacks, "CHUNK_BYTES", 5 * 8 * 3)  # 5-row chunks
    rng = RngStream(64)
    models = [LinearClassifier(rng.normal(0, 1, (3,))) for _ in range(k)]
    if zero_weight:
        models[-1].w[1] = 0.0
    data = Dataset(rng.normal(0, 1, (23, 3)), np.where(rng.uniform(0, 1, 23) < 0.5, 1, -1))
    chunks = list(adversarial_chunks(models, data, AttackConfig(norm="linf", eps=0.3, steps=4)))
    assert len(chunks) == 5
    assert len(calls) == (3 if zero_weight else 2) * len(chunks)
