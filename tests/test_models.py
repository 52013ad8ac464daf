import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustdata import autodiff as ad
from robustdata import models
from robustdata.autodiff import Tensor
from robustdata.dataset import Dataset
from robustdata.errors import DataError, NonFiniteError, ParameterError
from robustdata.models import (
    LinearClassifier, MlpClassifier, TrainConfig, accuracy, batch_loss_graph, hinge_parts, sgd_train,
)
from robustdata.rng import RngStream

from gradcheck import grad, tape_loss_graph


def binary_dataset(X, y):
    return Dataset(np.asarray(X, dtype=float), np.asarray(y, dtype=int))


def training_loss(model, batch, lam=0.0):
    """The objective sgd_train steps on, at the model's parameters: hinge or cross-entropy by model type."""
    params = [Tensor(p) for p in model.params()]
    return batch_loss_graph(model, params, Tensor(batch.features), model.targets(batch.labels), lam).item()


# ---------------------------------------------------------------------------
# hinge objective
# ---------------------------------------------------------------------------


def test_hinge_zero_weights_gives_one():
    model = LinearClassifier(np.zeros(2))
    batch = binary_dataset([[1.0, 2.0], [-3.0, 0.5]], [1, -1])
    assert training_loss(model, batch, 0.0) == pytest.approx(1.0)


def test_hinge_flat_region_is_zero():
    model = LinearClassifier(np.array([1.0, 0.0]))
    batch = binary_dataset([[2.0, 0.0]], [1])
    assert training_loss(model, batch, 0.0) == pytest.approx(0.0)


def test_hinge_hand_evaluated():
    # margin 0.5 -> hinge 0.5; ridge 0.1 * ||w||^2 = 0.1
    model = LinearClassifier(np.array([1.0, 0.0]))
    batch = binary_dataset([[0.5, 0.0]], [1])
    assert training_loss(model, batch, 0.1) == pytest.approx(0.6)


def test_hinge_rejects_bad_labels():
    model = LinearClassifier(np.zeros(2))
    batch = binary_dataset([[1.0, 0.0]], [0])
    with pytest.raises(DataError):
        training_loss(model, batch, 0.0)


def test_hinge_convex_in_w():
    rng = RngStream(4)
    X = rng.normal(0, 1, (50, 6))
    y = np.where(rng.uniform(0, 1, 50) < 0.5, 1, -1)
    batch = Dataset(X, y)
    for trial in range(20):
        w1 = rng.normal(0, 2, (6,))
        w2 = rng.normal(0, 2, (6,))
        t = float(rng.uniform(0, 1, ()))
        lhs = training_loss(LinearClassifier(t * w1 + (1 - t) * w2), batch, 1e-3)
        rhs = t * training_loss(LinearClassifier(w1), batch, 1e-3) + (1 - t) * training_loss(
            LinearClassifier(w2), batch, 1e-3
        )
        assert lhs <= rhs + 1e-10


def test_ridge_gradient_is_exactly_2_lambda_w():
    w0 = np.array([0.5, -1.5, 2.0])
    lam = 0.37

    def ridge(w):
        return ad.mul(ad.constant(lam), ad.tsum(ad.mul(w, w)))

    g = grad(ridge, [Tensor(w0)])[0].data
    np.testing.assert_array_equal(g, 2 * lam * w0)


def tape_hinge(X, y, w, lam):
    """The linear objective in tape primitives and its gradient in w: the reference for hinge_parts."""
    leaf = Tensor(w)
    out = tape_loss_graph(LinearClassifier.zeros(w.size), [leaf], Tensor(X), y, lam)  # the model only picks the loss
    return out.item(), ad.backward(out, [leaf])[0].data


@st.composite
def hinge_steps(draw):
    B, d = draw(st.integers(1, 129)), draw(st.integers(1, 29))
    rng = RngStream(draw(st.integers(0, 2**32)))  # hypothesis draws shapes and scales, the stream the entries
    y = rng.rademacher(B).astype(np.int64)
    if draw(st.booleans()):
        # integer data and weights: many margins are exactly 1, so slack == 0 (the kink)
        X = rng.integers(-2, 3, (B, d)).astype(np.float64)
        w = rng.integers(-1, 2, d).astype(np.float64)
    else:
        X = rng.normal(0, 1, (B, d))
        w = rng.normal(0, 1, d) * 10.0 ** draw(st.floats(-3, 3))
    lam = draw(st.one_of(st.just(0.0), st.just(1e-3), st.floats(0, 10)))
    return X, y, w, lam


@settings(max_examples=300, deadline=None)
@given(hinge_steps())
@example((np.array([[1.0, 0.0], [2.0, 1.0]]), np.array([1, -1]), np.array([1.0, 0.0]), 0.0))  # margins 1 and -2
def test_closed_form_hinge_step_matches_tape(case):
    X, y, w, lam = case
    loss, _, g = hinge_parts(X, y.astype(np.float64), w, lam)
    ref_loss, ref_g = tape_hinge(X, y, w, lam)
    assert loss == ref_loss
    assert np.array_equal(g, ref_g)


@st.composite
def learner_steps(draw):
    """A hinge step with a learner step size and a constant adversarial gradient g of w's shape."""
    X, y, w, lam = draw(hinge_steps())
    rng = RngStream(draw(st.integers(0, 2**32)))
    g = rng.integers(-1, 2, w.size).astype(np.float64) if draw(st.booleans()) else rng.normal(0, 1, w.size)
    return X, y, w, lam, draw(st.sampled_from([0.05, 1.0]) | st.floats(1e-3, 10.0)), g


def hinge_derivatives(graph, X, y, w, lam, lr, g):
    """The loss, its X and w adjoints, unrolled_grad's meta and updated, and the ridge Hessian times g."""
    model = LinearClassifier.zeros(w.size)  # the model only picks the loss
    X_leaf, w_leaf = Tensor(X), Tensor(w)
    out = graph(model, [w_leaf], X_leaf, y, lam)
    g_X, g_w = ad.backward(out, [X_leaf, w_leaf])
    hvp = ad.backward(ad.tsum(ad.mul(g_w, ad.constant(g))), [w_leaf])[0]
    meta, updated, _ = ad.unrolled_grad(
        lambda ps, data: graph(model, ps, data, y, lam), lambda updated: [g], [Tensor(w)], Tensor(X), lr
    )
    return [out.data, g_X.data, g_w.data, meta, *updated, hvp.data]


@settings(max_examples=300, deadline=None)
@given(learner_steps())
def test_hinge_node_matches_tape_graph(case):
    # the learner's calls on the fused node give the tape graph's values, signed zeros included
    got = hinge_derivatives(batch_loss_graph, *case)
    ref = hinge_derivatives(tape_loss_graph, *case)
    for a, b in zip(got, ref, strict=True):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize(
    "X, w",
    [
        (np.array([[np.nan, 0.0], [1.0, 1.0]]), np.array([1.0, 1.0])),  # NaN in X
        (np.ones((2, 2)), np.array([np.inf, 1.0])),  # infinite w
        (np.zeros((2, 2)), np.array([1e200, 1.0])),  # w*w overflows, margins finite
        (np.full((2, 2), 1e308), np.array([10.0, 1.0])),  # X @ w overflows, w*w finite
    ],
    ids=["nan-x", "inf-w", "ridge-overflow", "margin-overflow"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_hinge_raises_where_tape_does(X, w):
    y = np.array([1, -1])
    with pytest.raises(NonFiniteError):
        hinge_parts(X, y.astype(np.float64), w, 1e-3)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):  # the bare tape is no entry point
        tape_hinge(X, y, w, 1e-3)
    with pytest.raises(NonFiniteError):  # the fused node, as the learner builds it
        batch_loss_graph(LinearClassifier.zeros(2), [Tensor(w)], Tensor(X), y, 1e-3)


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    model = MlpClassifier([np.zeros((3, 2))], [np.zeros(2)])
    batch = Dataset(np.ones((4, 3)), np.array([0, 1, 0, 1]))
    assert training_loss(model, batch) == pytest.approx(np.log(2.0))


def test_cross_entropy_saturated_correct():
    # logits [1e6, 0]: softmax all but pins class 0
    model = MlpClassifier([np.array([[1e6, 0.0]])], [np.zeros(2)])
    batch = Dataset(np.ones((2, 1)), np.array([0, 0]))
    assert training_loss(model, batch) == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_matches_brute_force():
    rng = RngStream(8)
    model = MlpClassifier.init([4, 5, 3], rng)
    X = rng.normal(0, 1, (5, 4))
    y = np.array([0, 2, 1, 1, 0])
    batch = Dataset(X, y)
    logits = model.logits(X)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expected = -np.mean(np.log(probs[np.arange(5), y]))
    assert training_loss(model, batch) == pytest.approx(expected, abs=1e-12)


def test_cross_entropy_rejects_out_of_range_class():
    model = MlpClassifier([np.zeros((2, 2))], [np.zeros(2)])
    batch = Dataset(np.ones((1, 2)), np.array([5]))
    with pytest.raises(DataError):
        training_loss(model, batch)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_sgd_separable_two_points():
    ds = binary_dataset([[1.0, 0.5], [-1.0, -0.5]], [1, -1])
    model = LinearClassifier.zeros(2)
    cfg = TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.0, epochs=50, batch_size=2, seed=0)
    sgd_train(model, ds, cfg)
    assert accuracy(model, ds) == 1.0


def test_sgd_rejects_zero_epochs():
    with pytest.raises(ParameterError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize("field", ["lr", "weight_decay"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_train_config_rejects_non_finite_values(field, value):
    # `value <= 0` is False for NaN and inf, so a sign check alone lets them through
    with pytest.raises(ParameterError, match=f"{field} must be .* and finite"):
        TrainConfig(**{field: value})


def test_sgd_checks_the_last_update():
    # one step of lr 1e10 on a feature of 1e300 overflows w[0]; no later step reads it
    ds = binary_dataset([[1e300, 0.5], [-1e300, -0.5]], [1, -1])
    cfg = TrainConfig(lr=1e10, momentum=0.0, weight_decay=0.0, epochs=1, batch_size=2)
    with pytest.raises(NonFiniteError):
        sgd_train(LinearClassifier.zeros(2), ds, cfg)


def test_sgd_rejects_empty_dataset():
    ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(DataError):
        sgd_train(LinearClassifier.zeros(2), ds, TrainConfig(epochs=1))


def test_sgd_leaves_every_step_tape_leaf_unchanged(monkeypatch):
    # each step's inputs wrap the parameters it starts from: the tape leaves of a
    # network step, the w of a closed-form linear step; the update must not write into them
    seen = []
    original_graph, original_hinge = models.batch_loss_graph, models.hinge_parts

    def snapshotting_graph(model, params, *args):
        seen.extend((leaf.data, leaf.data.copy()) for leaf in params)
        return original_graph(model, params, *args)

    def snapshotting_hinge(X, y, w, lam):
        seen.append((w, w.copy()))
        return original_hinge(X, y, w, lam)

    monkeypatch.setattr(models, "batch_loss_graph", snapshotting_graph)
    monkeypatch.setattr(models, "hinge_parts", snapshotting_hinge)
    rng = RngStream(16)
    ds = binary_dataset(rng.normal(0, 1, (60, 3)), np.where(rng.uniform(0, 1, 60) < 0.5, 1, -1))
    cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=1e-3, epochs=2, batch_size=20, seed=0)
    sgd_train(LinearClassifier.zeros(3), ds, cfg)
    assert len(seen) == 6 * 1  # 6 closed-form steps, one weight vector each
    sgd_train(MlpClassifier.init([3, 4, 2], RngStream(2)), ds, cfg)
    assert len(seen) == 6 * 1 + 6 * 4  # and 6 tape steps with 4 leaves each
    assert all(np.array_equal(data, snapshot) for data, snapshot in seen)


def test_linear_sgd_builds_no_tape(monkeypatch):
    created = []
    init = Tensor.__init__

    def counted(tensor, *args, **kwargs):
        created.append(1)
        init(tensor, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    rng = RngStream(17)
    ds = binary_dataset(rng.normal(0, 1, (60, 3)), np.where(rng.uniform(0, 1, 60) < 0.5, 1, -1))
    cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=1e-3, epochs=2, batch_size=20, seed=0)
    sgd_train(LinearClassifier.zeros(3), ds, cfg)
    assert created == []
    sgd_train(MlpClassifier.init([3, 4, 2], RngStream(2)), ds, cfg)
    assert created  # the counter sees the network's tape


def test_sgd_full_batch_permutation_invariance():
    rng = RngStream(12)
    X = rng.normal(0, 1, (40, 5))
    y = np.where(X[:, 0] > 0, 1, -1)
    perm = rng.permutation(40)
    cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=1e-3, epochs=5, batch_size=40, seed=0)
    m1, _ = sgd_train(LinearClassifier.zeros(5), Dataset(X, y), cfg)
    m2, _ = sgd_train(LinearClassifier.zeros(5), Dataset(X[perm], y[perm]), cfg)
    np.testing.assert_allclose(m1.w, m2.w, atol=1e-10)


def test_sgd_loss_trace_decreases_on_separable_data():
    rng = RngStream(13)
    X = rng.normal(0, 1, (200, 4))
    y = np.where(X @ np.array([1.0, -1.0, 0.5, 0.0]) > 0, 1, -1)
    _, trace = sgd_train(
        LinearClassifier.zeros(4),
        Dataset(X, y),
        TrainConfig(lr=0.05, momentum=0.9, weight_decay=1e-4, epochs=10, batch_size=32, seed=0),
    )
    assert trace[-1] < trace[0]
    assert all(np.isfinite(v) for v in trace)


def test_mlp_trains_on_xor():
    rng = RngStream(14)
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 25)
    X = X + rng.normal(0, 0.05, X.shape)
    y = np.array([0, 1, 1, 0] * 25)
    ds = Dataset(X, y)
    model = MlpClassifier.init([2, 16, 2], RngStream(5))
    cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.0, epochs=60, batch_size=20, seed=0)
    sgd_train(model, ds, cfg)
    pred = np.argmax(model.logits(X), axis=1)
    assert np.mean(pred == y) >= 0.95


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------


def test_accuracy_constant_class():
    model = LinearClassifier(np.array([1.0]))
    ds = binary_dataset([[1.0], [2.0], [0.5]], [1, 1, 1])
    assert accuracy(model, ds) == 1.0


def test_accuracy_random_labels_near_half():
    rng = RngStream(15)
    X = rng.normal(0, 1, (10**4, 3))
    y = np.where(rng.uniform(0, 1, 10**4) < 0.5, 1, -1)
    model = LinearClassifier(np.array([1.0, 0.0, 0.0]))
    assert abs(accuracy(model, Dataset(X, y)) - 0.5) <= 0.02


def test_accuracy_empty_dataset_errors():
    ds = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int))
    with pytest.raises(DataError):
        accuracy(LinearClassifier(np.ones(1)), ds)
