import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustdata import autodiff as ad
from robustdata import models
from robustdata.autodiff import Tensor
from robustdata.dataset import Dataset
from robustdata.errors import ContractError, DataError, NonFiniteError, ParameterError
from robustdata.models import (
    LinearClassifier, MlpClassifier, TrainConfig, accuracy, batch_loss_graph, flatten, hinge_parts, sgd_train, unflatten,
)
from robustdata.rng import RngStream

from gradcheck import decision_graph, grad, tape_loss_graph, unrolled_grad


def binary_dataset(X, y):
    return Dataset(np.asarray(X, dtype=float), np.asarray(y, dtype=int))


def training_loss(model, batch, lam=0.0):
    """The objective sgd_train steps on, at the model's parameters: hinge or cross-entropy by model type."""
    theta = [Tensor(flatten(model.params()))]
    return batch_loss_graph(model, theta, Tensor(batch.features), model.targets(batch.labels), lam).item()


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


def node_derivatives(graph, model, X, y, theta, lam, lr, g):
    """The loss, its X and theta adjoints, and gradcheck.unrolled_grad's meta, updated and loss; the model
    only gives the loss and the parameter shapes, `theta` the flat parameters."""
    X_leaf, theta_leaf = Tensor(X), Tensor(theta)
    out = graph(model, [theta_leaf], X_leaf, y, lam)
    g_X, g_theta = ad.backward(out, [X_leaf, theta_leaf])
    if graph is batch_loss_graph:  # the fused node forms no parameter Hessian, and says so
        with pytest.raises(ContractError, match="forms no such derivative"):
            ad.backward(ad.tsum(ad.mul(g_theta, ad.constant(g))), [theta_leaf])
    meta, updated, train_out = unrolled_grad(
        lambda ps, data: graph(model, ps, data, y, lam), lambda updated: [g], [Tensor(theta)], Tensor(X), lr
    )
    return [out.data, g_X.data, g_theta.data, meta, *updated, train_out.data]


def assert_all_equal_bits(got, ref):
    for a, b in zip(got, ref, strict=True):
        assert a.shape == b.shape and equal_bits(a, b)


@settings(max_examples=300, deadline=None)
@given(learner_steps())
def test_hinge_node_matches_tape_graph(case):
    # the learner's calls on the fused node give the tape graph's values, signed zeros included
    X, y, w, lam, lr, g = case
    model = LinearClassifier.zeros(w.size)
    assert_all_equal_bits(node_derivatives(batch_loss_graph, model, X, y, w, lam, lr, g),
                          node_derivatives(tape_loss_graph, model, X, y, w, lam, lr, g))


@pytest.mark.parametrize("model", [LinearClassifier(np.array([1.0, -2.0])), MlpClassifier.init([2, 3, 2], RngStream(1))],
                         ids=["linear", "mlp"])
def test_fused_node_raises_on_derivatives_it_does_not_form(model):
    # it forms the loss's X and theta adjoints and the meta-gradient d/dX <G, gg>; none of those
    # results has a derivative, and G has none by theta: each raises instead of returning zeros
    X, theta = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]])), Tensor(flatten(model.params()))
    out = batch_loss_graph(model, [theta], X, model.targets(np.array([1, -1])), 1e-3)
    g_X, g_theta = ad.backward(out, [X, theta])
    (meta,) = ad.backward(ad.tsum(ad.mul(g_theta, ad.constant(np.ones(theta.shape)))), [X])
    for adjoint, leaf in ((g_theta, theta), (g_X, X), (g_X, theta), (meta, X), (meta, theta)):
        with pytest.raises(ContractError, match="forms no such derivative"):
            ad.backward(ad.tsum(ad.mul(adjoint, adjoint)), [leaf])


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


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_hinge_parts_raises_on_a_non_finite_w_it_does_not_check(bad, lam):
    # w is not checked up front: a NaN or Inf in it reaches the loss, 0*inf being NaN at lam = 0
    X, y = np.array([[1.0, -2.0], [0.5, 0.0]]), np.array([1.0, -1.0])
    with pytest.raises(NonFiniteError):
        hinge_parts(X, y, np.array([bad, 1.0]), lam)
    # on the seed axis, one seed's non-finite w is enough
    w = np.array([[0.5, 1.0], [0.0, bad], [1.0, 1.0]])
    with pytest.raises(NonFiniteError):
        hinge_parts(np.stack([X] * 3), np.stack([y] * 3), w, lam)


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


def tape_network_step(params, X, classes, lam):
    """The network objective in tape primitives and its weight and bias adjoints: the reference for mlp_parts."""
    model = MlpClassifier(params[0::2], params[1::2])
    theta = Tensor(flatten(params))
    out = tape_loss_graph(model, [theta], Tensor(X), classes, lam)
    return out.data, unflatten(model, ad.backward(out, [theta])[0].data)


@st.composite
def network_steps(draw):
    """S stacked seeds of one network's training step; integer entries put relu kinks and tied logits at exact values."""
    d, k, S, B = draw(st.integers(1, 12)), draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 70))
    sizes = [d, *draw(st.lists(st.integers(1, 40), min_size=1, max_size=2)), k]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))  # hypothesis draws shapes, the stream the entries
    integer = draw(st.booleans())

    def entries(shape):
        return rng.integers(-2, 3, shape).astype(np.float64) if integer else rng.normal(0, 1, shape)

    params = [np.stack([entries(shape) for _ in range(S)])
              for a, b in zip(sizes[:-1], sizes[1:]) for shape in ((a, b), (b,))]
    X = entries((S, B, d))
    X[..., rng.random(d) < 0.3] = 0.0  # exact-zero feature columns
    return params, X, rng.integers(0, k, (S, B)), draw(st.sampled_from([0.0, 1e-3, 0.37]))


@settings(max_examples=300, deadline=None)
@given(network_steps())
def test_closed_form_network_step_matches_tape(case):
    # mlp_parts is the training objective in tape primitives plus backward bit for bit,
    # signed zeros included, and a stacked call is its per-seed calls
    params, X, classes, lam = case
    loss, adjoints, _ = models.mlp_parts(params, X, classes, lam)
    for s in range(X.shape[0]):
        seed_params = [p[s] for p in params]
        ref_loss, ref_adjoints = tape_network_step(seed_params, X[s], classes[s], lam)
        solo_loss, solo_adjoints, _ = models.mlp_parts(seed_params, X[s], classes[s], lam)
        assert equal_bits(solo_loss, ref_loss) and equal_bits(loss[s], ref_loss)
        assert len(solo_adjoints) == len(adjoints) == len(ref_adjoints) == len(params)
        for got, solo, ref in zip(adjoints, solo_adjoints, ref_adjoints):
            assert solo.shape == ref.shape and equal_bits(solo, ref) and equal_bits(got[s], ref)


@st.composite
def network_learner_steps(draw):
    """A network's learner step: 1-3 hidden layers, 2-4 classes, exact-zero feature columns, a step size
    and an adversarial gradient g with +0.0 and -0.0 entries; integer entries put kinks at exact values."""
    d, k, B = draw(st.integers(1, 12)), draw(st.integers(2, 4)), draw(st.integers(1, 70))
    sizes = [d, *draw(st.lists(st.integers(1, 40), min_size=1, max_size=3)), k]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))  # hypothesis draws shapes, the stream the entries
    integer = draw(st.booleans())

    def entries(shape):
        return rng.integers(-2, 3, shape).astype(np.float64) if integer else rng.normal(0, 1, shape)

    model = MlpClassifier([entries(shape) for shape in zip(sizes[:-1], sizes[1:])], [entries(n) for n in sizes[1:]])
    X = entries((B, d))
    X[:, rng.random(d) < 0.3] = 0.0
    theta = flatten(model.params())
    g = entries(theta.size)
    g[rng.random(theta.size) < 0.2] = 0.0
    g[rng.random(theta.size) < 0.2] = -0.0
    lam, lr = draw(st.sampled_from([0.0, 1e-3, 0.37])), draw(st.sampled_from([0.05, 1.0]) | st.floats(1e-3, 10.0))
    return model, X, rng.integers(0, k, B), theta, lam, lr, g


def wide_network_step():
    """A step wide enough that the tape's transposed product (vW @ g.T).T and g @ vW.T differ in the last bits."""
    rng = np.random.default_rng(5)
    model = MlpClassifier.init([10, 300, 300, 3], RngStream(5))
    theta = flatten(model.params())
    return model, rng.normal(0, 1, (200, 10)), rng.integers(0, 3, 200), theta, 1e-3, 0.05, rng.normal(0, 1, theta.size)


@settings(max_examples=300, deadline=None)
@given(network_learner_steps())
@example(wide_network_step())
def test_network_node_matches_tape_graph(case):
    # the closed-form meta-gradient is the tape's second pass bit for bit, signed zeros included
    assert_all_equal_bits(node_derivatives(batch_loss_graph, *case), node_derivatives(tape_loss_graph, *case))


@st.composite
def integer_networks(draw):
    """A network of one or two hidden layers, rows and classes; integer entries, with -0.0 among them,
    put relu kinks and tied logits at exact values."""
    d, k, B = draw(st.integers(1, 8)), draw(st.integers(2, 4)), draw(st.integers(1, 40))
    sizes = [d, *draw(st.lists(st.integers(1, 12), min_size=1, max_size=2)), k]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(shape):
        values = rng.integers(-2, 3, shape).astype(np.float64)
        return np.where(rng.random(shape) < 0.1, -0.0, values)

    model = MlpClassifier([entries(shape) for shape in zip(sizes[:-1], sizes[1:])], [entries(n) for n in sizes[1:]])
    return model, entries((B, d)), rng.integers(0, k, B)


@settings(max_examples=300, deadline=None)
@given(integer_networks())
def test_every_network_pass_is_the_tape_forward(case):
    # prediction, the training objective and the attack gradient compute the tape's
    # logits bit for bit, signed zeros included; the last two hand theirs to the log-softmax
    model, X, classes = case
    ref = decision_graph([Tensor(p) for p in model.params()], Tensor(X)).data
    seen, head = [], models.log_softmax_head
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "log_softmax_head", lambda h: seen.append(h.copy()) or head(h))
        models.mlp_parts(model.params(), X, classes, 1e-3)
        models.mlp_input_gradient(model.params(), classes, len(X))(X)
    assert len(seen) == 2
    for logits in (model.logits(X), *seen):
        assert equal_bits(logits, ref)


def test_network_predict_rejects_non_finite_logits():
    # the first layer overflows to [inf, -inf], relu makes -inf * 0 a NaN and the
    # identity output layer carries it to both logits; predict returned class 0
    model = MlpClassifier([np.array([[1e308, -1e308]]), np.eye(2)], [np.zeros(2), np.array([0.0, 0.5])])
    X = np.array([[10.0]])
    with np.errstate(all="ignore"):
        assert np.isnan(model.logits(X)).all()
    with pytest.raises(NonFiniteError, match="logits contain NaN or Inf"):
        model.predict(X)  # no RuntimeWarning: the test suite turns those into errors


def _step_outcome(step, params, X, classes, lam):
    try:
        return step(params, X, classes, lam)
    except NonFiniteError:
        return None


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("hidden", [1, 2])
def test_closed_form_network_step_non_finite_parity(hidden, lam):
    base = MlpClassifier.init([3, *[4] * hidden, 3 - hidden % 2], RngStream(4 + hidden))
    # a bias of 1e-300 keeps the forward pass finite where the backward pass overflows
    grid = itertools.product(
        (1.0, 1e10, 1e100, 1e154, 1e300, 1e308), (0.0, 1e-300, 1e308),
        (0.0, 1.0, -1.0, 1e308, -1e308, 1.7e308, 1.79e308),
    )
    classes, raised = np.array([0, 1]), 0
    for scale, bias, x in grid:
        with np.errstate(over="ignore"):  # a weight scaled past 1.8e308 is an infinite leaf
            params = [p * scale if p.ndim == 2 else np.full_like(p, bias) for p in base.params()]
        X = x * np.array([[1.0, -0.5, 0.25], [-1.0, 0.5, 0.0]])
        got = _step_outcome(models.mlp_parts, params, X, classes, lam)
        with np.errstate(all="ignore"):  # the bare tape is no entry point
            ref = _step_outcome(tape_network_step, params, X, classes, lam)
        case = (hidden, lam, scale, bias, x)
        raised += ref is None
        if ref is None:
            assert got is None, case
        else:
            assert got is not None and equal_bits(got[0], ref[0]), case
            assert all(equal_bits(a, b) for a, b in zip(got[1], ref[1], strict=True)), case
    assert raised > 0  # the grid reaches overflow


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sgd_rejects_features_made_non_finite_after_construction(bad):
    ds = binary_dataset([[1.0, 0.5], [-1.0, -0.5], [0.5, 2.0]], [1, -1, 1])
    ds.features[2, 1] = bad  # a Dataset checks its features only when it is built
    cfg = TrainConfig(epochs=1, batch_size=2)
    with pytest.raises(NonFiniteError):
        sgd_train(LinearClassifier.zeros(2), ds, cfg)
    with pytest.raises(NonFiniteError):  # lock-step training
        sgd_train([LinearClassifier.zeros(2), LinearClassifier.zeros(2)], ds, [cfg, replace(cfg, seed=1)])


def test_sgd_rejects_a_hook_batch_with_an_infinite_row():
    ds = binary_dataset([[1.0, 0.5], [-1.0, -0.5], [0.5, 2.0]], [1, -1, 1])

    def perturb(X, y):
        X = X.copy()
        X[0] = np.inf
        return X

    with pytest.raises(NonFiniteError):
        sgd_train(LinearClassifier.zeros(2), ds, TrainConfig(epochs=1, batch_size=2), perturb)


def test_sgd_rejects_empty_dataset():
    ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(DataError):
        sgd_train(LinearClassifier.zeros(2), ds, TrainConfig(epochs=1))


def test_sgd_leaves_every_step_tape_leaf_unchanged(monkeypatch):
    # each closed-form step reads the parameters it starts from, the w of a
    # linear step and every weight and bias of a network step; the update must not write into them
    seen = []
    original_network, original_hinge = models.mlp_parts, models.hinge_parts

    def snapshotting_network(params, *args):
        seen.extend((p, p.copy()) for p in params)
        return original_network(params, *args)

    def snapshotting_hinge(X, y, w, lam):
        seen.append((w, w.copy()))
        return original_hinge(X, y, w, lam)

    monkeypatch.setattr(models, "mlp_parts", snapshotting_network)
    monkeypatch.setattr(models, "hinge_parts", snapshotting_hinge)
    rng = RngStream(16)
    ds = binary_dataset(rng.normal(0, 1, (60, 3)), np.where(rng.uniform(0, 1, 60) < 0.5, 1, -1))
    cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=1e-3, epochs=2, batch_size=20, seed=0)
    sgd_train(LinearClassifier.zeros(3), ds, cfg)
    assert len(seen) == 6 * 1  # 6 linear steps, one weight vector each
    sgd_train(MlpClassifier.init([3, 4, 2], RngStream(2)), ds, cfg)
    assert len(seen) == 6 * 1 + 6 * 4  # and 6 network steps with 4 parameter arrays each
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
    sgd_train([MlpClassifier.init([3, 4, 2], RngStream(seed)) for seed in (2, 3)], ds,
              [replace(cfg, seed=seed) for seed in (0, 1)])
    assert created == []  # neither model family builds a tape
    training_loss(MlpClassifier.init([3, 4, 2], RngStream(2)), ds)
    assert created  # the counter sees a tape


# ---------------------------------------------------------------------------
# lock-step linear training
# ---------------------------------------------------------------------------


def test_stacked_products_and_row_sums_match_per_seed_results():
    # the lock-step loop relies on numpy running the per-seed kernel for each
    # seed of a stacked product or row sum; a BLAS or numpy that does not
    # fails here rather than in a digest
    rng = np.random.default_rng(0)
    for _ in range(300):
        S, B, d = (int(v) for v in rng.integers(1, [6, 300, 64]))
        pool = rng.normal(0, 10.0 ** rng.integers(-5, 5), (2 * B, d))
        X = pool[rng.integers(0, 2 * B, (S, B))]  # a stacked gather, as the loop makes
        w, c = rng.normal(0, 1, (S, d)), rng.normal(0, 1, (S, B))
        margins = (X @ w[..., None])[..., 0]
        back = (X.swapaxes(-1, -2) @ c[..., None])[..., 0]
        sums, means = c.sum(-1), c.mean(axis=1)
        for s in range(S):
            assert np.array_equal(margins[s], X[s] @ w[s])
            assert np.array_equal(back[s], X[s].T @ c[s])
            assert np.array_equal(sums[s], np.sum(c[s]))
            assert np.array_equal(means[s], np.mean(list(c[s])))


def solo_linear_sgd(w, dataset, cfg):
    """Reference: one linear model's SGD loop on 2-D batches, one hinge_parts call per step."""
    y = dataset.labels.astype(np.float64)
    velocity, shuffle, trace = np.zeros_like(w), RngStream(cfg.seed), []
    with np.errstate(all="ignore"):
        for _ in range(cfg.epochs):
            order, losses = shuffle.permutation(dataset.n), []
            for start in range(0, dataset.n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, _, grad = hinge_parts(dataset.features[idx], y[idx], w, cfg.weight_decay)
                velocity *= cfg.momentum
                velocity += grad
                w = w - cfg.lr * velocity
                losses.append(float(loss))
            trace.append(float(np.mean(losses)))
    if not np.isfinite(w).all():
        raise NonFiniteError("the last SGD update left non-finite parameters")
    return w, trace


@st.composite
def lock_step_cases(draw):
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = binary_dataset(rows.normal(0, draw(st.sampled_from([1.0, 1e100])), (n, d)), rows.choice([-1, 1], n))
    seeds = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))  # repeats are drawn often
    inits = [rows.normal(0, 1, d) if draw(st.booleans()) else np.zeros(d) for _ in seeds]
    cfg = TrainConfig(
        lr=draw(st.sampled_from([1e-3, 0.1, 10.0, 1e300])),
        momentum=draw(st.sampled_from([0.0, 0.9])),
        weight_decay=draw(st.sampled_from([0.0, 1e-3, 1.0])),
        epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, 16)),  # mostly not dividing n: a partial last batch
    )
    return ds, inits, [replace(cfg, seed=seed) for seed in seeds]


def equal_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=300, deadline=None)
@given(lock_step_cases())
def test_lock_step_linear_training_equals_solo_runs(case):
    ds, inits, cfgs = case
    solo = []
    for w, cfg in zip(inits, cfgs):
        try:
            solo.append(solo_linear_sgd(w, ds, cfg))
        except NonFiniteError:
            solo.append(None)
    models_ = [LinearClassifier(w) for w in inits]
    if None in solo:
        with pytest.raises(NonFiniteError):
            sgd_train(models_, ds, cfgs)
        return
    trained = sgd_train(models_, ds, cfgs)
    assert [m for m, _ in trained] == models_
    for (model, trace), (w, ref_trace), init, cfg in zip(trained, solo, inits, cfgs):
        assert equal_bits(model.w, w) and equal_bits(trace, ref_trace)
        alone, alone_trace = sgd_train(LinearClassifier(init), ds, cfg)  # the one-seed case
        assert equal_bits(alone.w, w) and equal_bits(alone_trace, ref_trace)


def test_lock_step_rejects_unlike_configs_and_hooks():
    ds = binary_dataset([[1.0, 0.0], [-1.0, 0.0]], [1, -1])
    cfg = TrainConfig(epochs=1)
    linear = [LinearClassifier.zeros(2), LinearClassifier.zeros(2)]
    for models_, cfgs, hook in ((linear, [cfg, replace(cfg, lr=0.5)], None), (linear, [cfg], None), ([], [], None),
                                (linear, [cfg, replace(cfg, seed=1)], lambda X, y: X),
                                # models of unlike architectures
                                ([network(2, [4], 0), network(2, [8], 1)], [cfg, replace(cfg, seed=1)], None),
                                ([LinearClassifier.zeros(2), network(2, [4], 1)], [cfg, replace(cfg, seed=1)], None),
                                # a list on one side only: these raised TypeError and AttributeError
                                (linear, cfg, None), (LinearClassifier.zeros(2), [cfg], None),
                                (network(2, [4], 0), [cfg], None)):
        with pytest.raises(ParameterError, match="lock-step training"):
            sgd_train(models_, ds, cfgs, hook)


# ---------------------------------------------------------------------------
# lock-step network training
# ---------------------------------------------------------------------------


def network(width, hidden, seed, classes=2):
    return MlpClassifier.init([width, *hidden, classes], RngStream(seed))


def solo_network_sgd(model, dataset, cfg):
    """Reference: one network's SGD loop on the tape, the objective in primitives and backward per step."""
    y = model.targets(dataset.labels)
    params = model.params()
    velocity, shuffle, trace = [np.zeros_like(p) for p in params], RngStream(cfg.seed), []
    with np.errstate(all="ignore"):
        for _ in range(cfg.epochs):
            order, losses = shuffle.permutation(dataset.n), []
            for start in range(0, dataset.n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                theta = Tensor(flatten(params))
                out = tape_loss_graph(model, [theta], Tensor(dataset.features[idx]), y[idx], cfg.weight_decay)
                for v, g in zip(velocity, unflatten(model, ad.backward(out, [theta])[0].data)):
                    v *= cfg.momentum
                    v += g
                params = [p - cfg.lr * v for p, v in zip(params, velocity)]
                losses.append(out.item())
            trace.append(float(np.mean(losses)))
    if not all(np.isfinite(p).all() for p in params):
        raise NonFiniteError("the last SGD update left non-finite parameters")
    return params, trace


@st.composite
def lock_step_network_cases(draw):
    n, d, k = draw(st.integers(1, 30)), draw(st.integers(1, 4)), draw(st.integers(2, 3))
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rows.choice([-1, 1], n) if k == 2 and draw(st.booleans()) else rows.integers(0, k, n)
    ds = Dataset(rows.normal(0, draw(st.sampled_from([1.0, 1e100])), (n, d)), labels)
    hidden = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    seeds = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))  # repeats are drawn often
    cfg = TrainConfig(
        lr=draw(st.sampled_from([1e-3, 0.1, 10.0, 1e300])),
        momentum=draw(st.sampled_from([0.0, 0.9])),
        weight_decay=draw(st.sampled_from([0.0, 1e-3, 1.0])),
        epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, 12)),  # mostly not dividing n: a partial last batch
    )
    inits = [network(d, hidden, draw(st.integers(0, 9)), k) for _ in seeds]
    return ds, inits, [replace(cfg, seed=seed) for seed in seeds]


@settings(max_examples=300, deadline=None)
@given(lock_step_network_cases())
def test_lock_step_network_training_equals_solo_runs(case):
    ds, inits, cfgs = case
    solo = []
    for init, cfg in zip(inits, cfgs):
        try:
            solo.append(solo_network_sgd(init, ds, cfg))
        except NonFiniteError:
            solo.append(None)
    models_ = [MlpClassifier(m.weights, m.biases) for m in inits]
    if None in solo:
        with pytest.raises(NonFiniteError):
            sgd_train(models_, ds, cfgs)
        return
    trained = sgd_train(models_, ds, cfgs)
    assert [m for m, _ in trained] == models_
    for (model, trace), (params, ref_trace), init, cfg in zip(trained, solo, inits, cfgs):
        assert all(equal_bits(a, b) for a, b in zip(model.params(), params, strict=True))
        assert equal_bits(trace, ref_trace)
        alone, alone_trace = sgd_train(MlpClassifier(init.weights, init.biases), ds, cfg)  # the one-seed case
        assert all(equal_bits(a, b) for a, b in zip(alone.params(), params, strict=True))
        assert equal_bits(alone_trace, ref_trace)


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
