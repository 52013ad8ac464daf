from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustdata import autodiff, learning
from robustdata.attacks import AttackConfig, attack_for_dataset, closed_form_linear_robust_accuracy, robust_accuracy
from robustdata.config import ExperimentConfig
from robustdata.dataset import Dataset, subsample
from robustdata.errors import DataError, NonFiniteError, ParameterError
from robustdata.evaluation import model_factory
from robustdata.learning import (
    ALTERNATING,
    META_GRADIENT,
    RobustLearnConfig,
    adversarially_train_reference,
    baseline_adv_dataset,
    learn_robust_dataset,
)
from robustdata.models import LinearClassifier, TrainConfig, accuracy, sgd_train
from robustdata.rng import RngStream
from robustdata.theory import DistributionSpec, sample

from gradcheck import unrolled_grad

D, MU, P, N = 20, 0.4, 0.9, 2000
EPS = 2 * MU
ATTACK = AttackConfig(norm="linf", eps=EPS, steps=10)
FRESH_TRAIN = TrainConfig(lr=0.002, momentum=0.9, weight_decay=1e-3, epochs=40, batch_size=128, seed=0)


def task(seed=0, n=N, n_test=4000):
    rng = RngStream(seed)
    spec = DistributionSpec(d=D, mu=MU, p=P)
    return sample(spec, n, rng.child(1)), sample(spec, n_test, rng.child(2))


def learner_config(**overrides):
    base = dict(epochs=50, gamma=0.05, beta=0.01, attack=ATTACK, batch_size=128, theta0_seed=0, lam=1e-3)
    base.update(overrides)
    return RobustLearnConfig(**base)


def test_config_validation():
    with pytest.raises(ParameterError):
        learner_config(epochs=0)
    with pytest.raises(ParameterError):
        learner_config(gamma=0.0)
    with pytest.raises(ParameterError):
        learner_config(beta=-0.1)
    with pytest.raises(ParameterError):
        learner_config(mode="bogus")


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in ("gamma", "beta", "lam") for v in (float("nan"), float("inf"))] + [("lam", -1.0)],
)
def test_config_rejects_non_finite_or_negative_values(field, value):
    # `value <= 0` is False for NaN and inf; a negative lam is a negative ridge
    with pytest.raises(ParameterError, match=f"{field} must be .* and finite"):
        learner_config(**{field: value})


def test_learner_rejects_empty_dataset():
    # it used to return an empty dataset and a trace of NaN means, with numpy's RuntimeWarnings
    empty = Dataset(np.zeros((0, D + 1)), np.zeros(0, int))
    with pytest.raises(DataError, match="cannot learn from an empty dataset"):
        learn_robust_dataset(empty, model_factory("linear", D + 1), learner_config(epochs=1), RngStream(0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_names_epoch_and_batch():
    train, _ = task(n=300)
    factory = model_factory("linear", D + 1)
    with pytest.raises(NonFiniteError, match=r"epoch 0, batch 0"):
        learn_robust_dataset(train, factory, learner_config(gamma=1e300, epochs=1), RngStream(0))


def test_learner_calls_the_checked_meta_gradient(monkeypatch):
    # acceptance criterion 7 checks learning.learner_batch against finite differences;
    # the learner must take its meta-gradient from that function. benchmarks/tracing.py
    # cuts each batch into steps 1-3 by this call order, wrapping each callee where it is
    # patched here: step 1 is a loss graph and its backward, step 2 the attack, step 3
    # the adversarial loss graph, its backward and the meta-gradient's backward
    batches = []
    batch = learning.learner_batch

    def counted(*args):
        batches.append([])
        return batch(*args)

    def recorded(name, fn):
        def call(*args, **kwargs):
            batches[-1].append(name)
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(learning, "learner_batch", counted)
    for owner, name in ((learning, "batch_loss_graph"), (learning, "pgd_attack"), (autodiff, "backward")):
        monkeypatch.setattr(owner, name, recorded(name, getattr(owner, name)))
    train, _ = task(n=300)
    learn_robust_dataset(train, model_factory("linear", D + 1), learner_config(epochs=2), RngStream(0))
    calls = ["batch_loss_graph", "backward", "pgd_attack", "batch_loss_graph", "backward", "backward"]
    assert batches == [calls] * (2 * 3)  # epochs x batches of 128 over 300 rows


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["linear", "mlp:8"]), st.sampled_from([META_GRADIENT, ALTERNATING]), st.integers(0, 2**32 - 1),
    st.integers(1, 6), st.integers(1, 40), st.sampled_from([0.05, 1.0]) | st.floats(1e-3, 10.0),
    st.sampled_from([0.0, 1e-3]) | st.floats(0.0, 1.0),
)
def test_meta_gradient_is_the_inner_products_derivative(family, mode, seed, d, n, gamma, lam):
    # learner_batch takes the meta-gradient as the vjp backward(G, [X], g); unrolled_grad
    # differentiates the inner product <G, g> instead, and both must agree bit for bit.
    # Integer entries make hinge and relu kinks common; the floats exercise rounding
    rows = np.random.default_rng(seed)
    mixed = lambda shape: np.where(rows.random(shape) < 0.5, rows.integers(-3, 4, shape), rows.uniform(-3, 3, shape))
    w0 = mixed(d)
    factory = (lambda s: LinearClassifier(w0)) if family == "linear" else model_factory(family, d)
    train = Dataset(mixed((n, d)), rows.choice([-1, 1], n))
    cfg = RobustLearnConfig(epochs=1, gamma=gamma, beta=0.01, attack=AttackConfig(eps=0.5, steps=2),
                            batch_size=int(rows.integers(max(1, n // 2), n + 1)), mode=mode, lam=lam)
    batch, checked = learning.learner_batch, []

    def checked_batch(model, theta, b_rob, b_nat, yb, cfg, attack_cfg):
        meta, updated, train_out, adv_loss = batch(model, theta, b_rob, b_nat, yb, cfg, attack_cfg)
        # the reference's step 2 sets the model to `updated` again, where learner_batch left it
        ref, (ref_updated,), _ = unrolled_grad(
            lambda ps, X: learning.batch_loss_graph(model, ps, X, yb, cfg.lam),
            lambda ups: [learning._adversarial_gradient(model, theta, ups[0], b_nat, yb, cfg, attack_cfg)[0]],
            [autodiff.Tensor(theta)], autodiff.Tensor(b_rob), cfg.gamma,
        )
        for a, b in ((meta, ref), (updated, ref_updated)):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
        checked.append(len(yb))
        return meta, updated, train_out, adv_loss

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "learner_batch", checked_batch)
        learn_robust_dataset(train, factory, cfg, RngStream(0))
    assert sum(checked) == n  # every batch of the epoch was checked


def test_beta_zero_freezes_data():
    train, _ = task()
    factory = model_factory("linear", D + 1)
    learned, trace = learn_robust_dataset(train, factory, learner_config(beta=0.0, epochs=3), RngStream(3))
    np.testing.assert_array_equal(learned.features, train.features)
    np.testing.assert_array_equal(learned.labels, train.labels)
    assert len(trace) == 3


def test_vanishing_budget_keeps_clean_accuracy():
    # eps -> 0: the adversarial batch equals the natural batch and the meta
    # step descends the clean loss, so learned data must stay (nearly) as
    # trainable as the natural data
    train, test = task()
    factory = model_factory("linear", D + 1)
    tiny = AttackConfig(norm="linf", eps=1e-9, steps=3)
    learned, _ = learn_robust_dataset(train, factory, learner_config(attack=tiny, epochs=10), RngStream(2))
    on_learned, _ = sgd_train(factory(FRESH_TRAIN.seed), learned, FRESH_TRAIN)
    on_natural, _ = sgd_train(factory(FRESH_TRAIN.seed), train, FRESH_TRAIN)
    assert accuracy(on_learned, test) >= accuracy(on_natural, test) - 0.01


def test_labels_never_modified():
    train, _ = task()
    factory = model_factory("linear", D + 1)
    learned, _ = learn_robust_dataset(train, factory, learner_config(epochs=2), RngStream(3))
    np.testing.assert_array_equal(learned.labels, train.labels)
    adv = baseline_adv_dataset(LinearClassifier(np.ones(D + 1)), train, ATTACK)
    np.testing.assert_array_equal(adv.labels, train.labels)
    sub = subsample(learned, 0.5, RngStream(5))
    assert set(np.unique(sub.labels)) <= {-1, 1}


def test_learning_is_deterministic():
    train, _ = task()
    factory = model_factory("linear", D + 1)
    a, _ = learn_robust_dataset(train, factory, learner_config(epochs=3), RngStream(17))
    b, _ = learn_robust_dataset(train, factory, learner_config(epochs=3), RngStream(17))
    assert np.array_equal(a.features, b.features)  # bit-identical


def test_value_range_respected_every_update():
    rng = RngStream(6)
    X = np.clip(rng.normal(0.5, 0.2, (256, 5)), 0.0, 1.0)
    y = np.where(rng.uniform(0, 1, 256) < 0.5, 1, -1)
    train = Dataset(X, y, value_range=(0.0, 1.0))
    factory = model_factory("linear", 5)
    cfg = learner_config(epochs=4, beta=0.05, attack=AttackConfig(norm="linf", eps=0.1, steps=5))
    learned, _ = learn_robust_dataset(train, factory, cfg, RngStream(7))
    assert learned.features.min() >= 0.0
    assert learned.features.max() <= 1.0
    assert learned.value_range == (0.0, 1.0)


def _wide_range_task(seed):
    rng = RngStream(seed)
    X = np.clip(rng.normal(0.0, 1.5, (256, 5)), -3.0, 3.0)
    y = np.where(rng.uniform(0, 1, 256) < 0.5, 1, -1)
    return Dataset(X, y, value_range=(-3.0, 3.0))


def test_learner_clips_data_to_the_attack_clamp():
    # the attack's clamp is the learner's one box: data updates stay inside it too
    train = _wide_range_task(8)
    assert train.features.min() < -1.0 and train.features.max() > 1.0
    atk = AttackConfig(norm="linf", eps=0.1, steps=5, clamp=(-1.0, 1.0))
    learned, _ = learn_robust_dataset(train, model_factory("linear", 5), learner_config(epochs=2, attack=atk), RngStream(9))
    assert learned.features.min() >= -1.0
    assert learned.features.max() <= 1.0
    assert learned.value_range == (-3.0, 3.0)


def test_clamp_outside_value_range_rejected():
    train = _wide_range_task(10)
    inside = AttackConfig(norm="linf", eps=0.1, steps=5, clamp=(-1.0, 1.0))
    assert attack_for_dataset(inside, train) is inside
    wide = AttackConfig(norm="linf", eps=0.1, steps=5, clamp=(-5.0, 5.0))
    with pytest.raises(ParameterError, match="not inside the value range"):
        attack_for_dataset(wide, train)
    with pytest.raises(ParameterError):
        baseline_adv_dataset(LinearClassifier(np.ones(5)), train, wide)
    with pytest.raises(ParameterError):
        learn_robust_dataset(train, model_factory("linear", 5), learner_config(epochs=1, attack=wide), RngStream(12))


def test_adversarial_loss_trace_decreases():
    train, _ = task()
    factory = model_factory("linear", D + 1)
    _, trace = learn_robust_dataset(train, factory, learner_config(), RngStream(8))
    assert trace[-1].adv_loss < trace[0].adv_loss
    assert all(np.isfinite([t.clean_loss, t.adv_loss, t.update_norm]).all() for t in trace)


def test_meta_gradient_direction_nonzero():
    train, _ = task()
    factory = model_factory("linear", D + 1)
    _, trace = learn_robust_dataset(train, factory, learner_config(epochs=1), RngStream(9))
    assert trace[0].update_norm > 0


def test_modes_coincide_for_tiny_gamma():
    train, _ = task()
    factory = model_factory("linear", D + 1)
    # the sign pattern of the meta step is gamma-invariant; as gamma -> 0 the
    # two adversarial-gradient evaluation points merge
    a, _ = learn_robust_dataset(train, factory, learner_config(epochs=2, gamma=1e-9), RngStream(10))
    b, _ = learn_robust_dataset(
        train, factory, learner_config(epochs=2, gamma=1e-9, mode=ALTERNATING), RngStream(10)
    )
    np.testing.assert_array_equal(a.features, b.features)


def test_alternating_mode_differs_on_nonlinear_model():
    # on a linear model the signed step rarely sees the g-evaluation point;
    # an MLP makes the two modes measurably different
    rng = RngStream(13)
    X = rng.normal(0, 1, (120, 4))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, 1, -1)
    train = Dataset(X, y)
    factory = model_factory("mlp:8", 4)
    cfg = dict(epochs=3, beta=0.02, attack=AttackConfig(norm="linf", eps=0.3, steps=5), batch_size=40, theta0_seed=0)
    a, _ = learn_robust_dataset(train, factory, RobustLearnConfig(gamma=0.5, **cfg), RngStream(14))
    b, _ = learn_robust_dataset(train, factory, RobustLearnConfig(gamma=0.5, mode=ALTERNATING, **cfg), RngStream(14))
    assert not np.array_equal(a.features, b.features)


def test_end_to_end_separation():
    # the headline run: natural retraining on the learned data is robust,
    # the natural-data control is not
    train, test = task()
    factory = model_factory("linear", D + 1)
    learned, _ = learn_robust_dataset(train, factory, learner_config(), RngStream(12))
    fresh, _ = sgd_train(factory(FRESH_TRAIN.seed), learned, FRESH_TRAIN)
    control, _ = sgd_train(factory(FRESH_TRAIN.seed), train, FRESH_TRAIN)
    rob_fresh = closed_form_linear_robust_accuracy(fresh, test, EPS)
    rob_control = closed_form_linear_robust_accuracy(control, test, EPS)
    assert rob_fresh >= 0.7
    assert rob_control <= 0.1


SHIPPED = ExperimentConfig.from_file(Path(__file__).resolve().parents[1] / "configs" / "synthetic-d20.json")
# the shipped train section trained to convergence; at its own 40 epochs the
# evaluation SVM has not converged at learner seed 1 and misses the bound (0.570)
CONVERGED_TRAIN = TrainConfig(**dict(SHIPPED.section("train"), epochs=60), seed=0)


@pytest.mark.parametrize("seed", range(10))
def test_learned_data_guarantee_for_converged_linear_classifiers(seed):
    # the README's measured guarantee; inputs are made as `robustdata learn --seed s`
    # makes them, and the test set as `robustdata evaluate --seed s` samples it
    rng = RngStream(seed)
    spec, sizes = SHIPPED.distribution_spec(), SHIPPED.section("distribution")
    train = sample(spec, sizes["n_train"], rng.child(100))
    cfg = RobustLearnConfig(**SHIPPED.section("robust_learn"), attack=SHIPPED.attack_config(), theta0_seed=seed)
    factory = model_factory(SHIPPED.section("model")["arch"], train.width)
    learned, _ = learn_robust_dataset(train, factory, cfg, rng.child(200))
    test = sample(spec, sizes["n_test"], rng.child(101))
    attack = SHIPPED.attack_config()
    assert (attack.eps, test.n) == (0.8, 10_000)
    fresh, _ = sgd_train(factory(CONVERGED_TRAIN.seed), learned, CONVERGED_TRAIN)
    control, _ = sgd_train(factory(CONVERGED_TRAIN.seed), train, CONVERGED_TRAIN)
    assert robust_accuracy(fresh, test, attack) >= 0.7
    assert robust_accuracy(control, test, attack) <= 0.1


def test_mlp_learner_smoke():
    rng = RngStream(13)
    X = rng.normal(0, 1, (200, 4))
    y = np.where(X[:, 0] + X[:, 1] > 0, 1, -1)
    train = Dataset(X, y)
    factory = model_factory("mlp:8", 4)
    cfg = learner_config(epochs=2, batch_size=50, attack=AttackConfig(norm="linf", eps=0.2, steps=3))
    learned, trace = learn_robust_dataset(train, factory, cfg, RngStream(14))
    assert learned.features.shape == X.shape
    assert len(trace) == 2


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_baseline_constant_model_returns_input():
    train, _ = task()
    adv = baseline_adv_dataset(LinearClassifier(np.zeros(D + 1)), train, ATTACK)
    np.testing.assert_array_equal(adv.features, train.features)


def test_attacks_on_empty_data_raise_data_error():
    empty = Dataset(np.zeros((0, 3)), np.zeros(0, int))
    with pytest.raises(DataError):
        baseline_adv_dataset(LinearClassifier(np.ones(3)), empty, ATTACK)
    with pytest.raises(DataError):
        robust_accuracy(LinearClassifier(np.ones(3)), empty, ATTACK)


def test_baseline_rows_stay_in_threat_ball():
    train, _ = task()
    model, _ = sgd_train(model_factory("linear", D + 1)(FRESH_TRAIN.seed), train, FRESH_TRAIN)
    adv = baseline_adv_dataset(model, train, ATTACK)
    assert np.max(np.abs(adv.features - train.features)) <= EPS + 1e-9
    assert adv.n == train.n


def test_adversarial_training_beats_natural_on_synthetic_task():
    # the adversarial-training budget stays below 2p-1 = 0.8: at exactly that
    # value the adversarial hinge is first-order flat in the strong-feature
    # weight and training cannot pick it up; evaluation still uses the task
    # budget eps = 2 mu
    train, test = task()
    factory = model_factory("linear", D + 1)
    at_attack = AttackConfig(norm="linf", eps=0.6, steps=10)
    at_model, trace = adversarially_train_reference(factory, train, at_attack, FRESH_TRAIN)
    control, _ = sgd_train(factory(FRESH_TRAIN.seed), train, FRESH_TRAIN)
    rob_at = closed_form_linear_robust_accuracy(at_model, test, EPS)
    rob_nat = closed_form_linear_robust_accuracy(control, test, EPS)
    assert rob_at >= 0.6
    assert rob_nat <= 0.1
    assert rob_at >= rob_nat + 0.10
    assert np.isfinite(trace).all()
    assert trace[-1] < trace[0]


def test_adversarial_training_tiny_budget_matches_natural():
    train, _ = task()
    factory = model_factory("linear", D + 1)
    tiny = AttackConfig(norm="linf", eps=1e-9, steps=3)
    at_model, _ = adversarially_train_reference(factory, train, tiny, FRESH_TRAIN)
    nat_model, _ = sgd_train(factory(FRESH_TRAIN.seed), train, FRESH_TRAIN)
    np.testing.assert_allclose(at_model.w, nat_model.w, atol=1e-6)


def test_subsample_trend_on_learned_dataset():
    train, test = task()
    factory = model_factory("linear", D + 1)
    learned, _ = learn_robust_dataset(train, factory, learner_config(), RngStream(19))
    robs = []
    for frac in (0.1, 0.2, 1.0):
        ds = learned if frac == 1.0 else subsample(learned, frac, RngStream(20))
        fresh, _ = sgd_train(factory(FRESH_TRAIN.seed), ds, FRESH_TRAIN)
        robs.append(closed_form_linear_robust_accuracy(fresh, test, EPS))
    assert robs[0] <= robs[1] <= robs[2]
