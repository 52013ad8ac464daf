import numpy as np
import pytest

from robustdata.dataset import Dataset
from robustdata.errors import DataError, ParameterError
from robustdata.models import (
    LinearClassifier,
    MlpClassifier,
    TrainConfig,
    accuracy,
    cross_entropy,
    hinge_objective,
    sgd_train,
)
from robustdata.rng import RngStream


def binary_dataset(X, y):
    return Dataset(np.asarray(X, dtype=float), np.asarray(y, dtype=int))


# ---------------------------------------------------------------------------
# hinge objective
# ---------------------------------------------------------------------------


def test_hinge_zero_weights_gives_one():
    model = LinearClassifier(np.zeros(2))
    batch = binary_dataset([[1.0, 2.0], [-3.0, 0.5]], [1, -1])
    assert hinge_objective(model, batch, 0.0) == pytest.approx(1.0)


def test_hinge_flat_region_is_zero():
    model = LinearClassifier(np.array([1.0, 0.0]))
    batch = binary_dataset([[2.0, 0.0]], [1])
    assert hinge_objective(model, batch, 0.0) == pytest.approx(0.0)


def test_hinge_hand_evaluated():
    # margin 0.5 -> hinge 0.5; ridge 0.1 * ||w||^2 = 0.1
    model = LinearClassifier(np.array([1.0, 0.0]))
    batch = binary_dataset([[0.5, 0.0]], [1])
    assert hinge_objective(model, batch, 0.1) == pytest.approx(0.6)


def test_hinge_rejects_bad_labels():
    model = LinearClassifier(np.zeros(2))
    batch = binary_dataset([[1.0, 0.0]], [0])
    with pytest.raises(DataError):
        hinge_objective(model, batch, 0.0)


def test_hinge_convex_in_w():
    rng = RngStream(4)
    X = rng.normal(0, 1, (50, 6))
    y = np.where(rng.uniform(0, 1, 50) < 0.5, 1, -1)
    batch = Dataset(X, y)
    for trial in range(20):
        w1 = rng.normal(0, 2, (6,))
        w2 = rng.normal(0, 2, (6,))
        t = float(rng.uniform(0, 1, ()))
        lhs = hinge_objective(LinearClassifier(t * w1 + (1 - t) * w2), batch, 1e-3)
        rhs = t * hinge_objective(LinearClassifier(w1), batch, 1e-3) + (1 - t) * hinge_objective(
            LinearClassifier(w2), batch, 1e-3
        )
        assert lhs <= rhs + 1e-10


def test_ridge_gradient_is_exactly_2_lambda_w():
    from robustdata import autodiff as ad
    from robustdata.autodiff import Tensor

    w0 = np.array([0.5, -1.5, 2.0])
    lam = 0.37

    def ridge(w):
        return ad.mul(ad.constant(lam), ad.tsum(ad.mul(w, w)))

    g = ad.grad(ridge, [Tensor(w0)])[0].data
    np.testing.assert_array_equal(g, 2 * lam * w0)


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    model = MlpClassifier([np.zeros((3, 2))], [np.zeros(2)])
    batch = Dataset(np.ones((4, 3)), np.array([0, 1, 0, 1]))
    assert cross_entropy(model, batch) == pytest.approx(np.log(2.0))


def test_cross_entropy_saturated_correct():
    # logits [1e6, 0]: softmax all but pins class 0
    model = MlpClassifier([np.array([[1e6, 0.0]])], [np.zeros(2)])
    batch = Dataset(np.ones((2, 1)), np.array([0, 0]))
    assert cross_entropy(model, batch) == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_matches_brute_force():
    rng = RngStream(8)
    model = MlpClassifier.init([4, 5, 3], rng)
    X = rng.normal(0, 1, (5, 4))
    y = np.array([0, 2, 1, 1, 0])
    batch = Dataset(X, y)
    logits = model.logits(X)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expected = -np.mean(np.log(probs[np.arange(5), y]))
    assert cross_entropy(model, batch) == pytest.approx(expected, abs=1e-12)


def test_cross_entropy_rejects_out_of_range_class():
    model = MlpClassifier([np.zeros((2, 2))], [np.zeros(2)])
    batch = Dataset(np.ones((1, 2)), np.array([5]))
    with pytest.raises(DataError):
        cross_entropy(model, batch)


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


def test_sgd_rejects_empty_dataset():
    ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(DataError):
        sgd_train(LinearClassifier.zeros(2), ds, TrainConfig(epochs=1))


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
