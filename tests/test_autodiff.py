import gc
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from robustdata import autodiff as ad
from robustdata import learning
from robustdata import rng as rng_module
from robustdata.attacks import AttackConfig
from robustdata.autodiff import Tensor, backward
from robustdata.dataset import Dataset
from robustdata.errors import ContractError, NonFiniteError, ParameterError
from robustdata.evaluation import model_factory
from robustdata.learning import RobustLearnConfig, learn_robust_dataset
from robustdata.models import LinearClassifier, MlpClassifier, TrainConfig, batch_loss_graph, flatten, sgd_train
from robustdata.rng import RngStream, philox_key
from robustdata.theory import DistributionSpec, sample

from gradcheck import (
    finite_diff_check, grad, matmul, mean, neg, power, relu, tape_loss_graph, texp, tlog, transpose, unrolled_grad,
)


def test_grad_square():
    g = grad(lambda x: ad.mul(x, x), [Tensor(3.0)])[0]
    assert g.data == 6.0


def test_grad_hinge_flat_region():
    # margin above 1: the hinge is flat, gradient is zero
    w = Tensor(np.array([[2.0], [0.0]]))
    x = np.array([[2.0, 5.0]])

    def f(wt):
        return ad.tsum(relu(ad.add(ad.constant(1.0), neg(matmul(ad.constant(x), wt)))))

    g = grad(f, [w])[0]
    np.testing.assert_array_equal(g.data, np.zeros((2, 1)))


def test_grad_matches_finite_differences_on_mlp():
    rng = RngStream(3)
    W1, b1 = Tensor(rng.normal(0, 1, (4, 8))), Tensor(rng.normal(0, 1, (8,)))
    W2, b2 = Tensor(rng.normal(0, 1, (8, 3))), Tensor(rng.normal(0, 1, (3,)))
    X = rng.normal(0, 1, (5, 4))
    onehot = np.zeros((5, 3))
    onehot[np.arange(5), np.array([0, 2, 1, 1, 0])] = 1.0

    def ce(w1, bb1, w2, bb2):
        h = relu(ad.add(matmul(ad.constant(X), w1), bb1))
        logits = ad.add(matmul(h, w2), bb2)
        lse = tlog(ad.tsum(texp(logits), axis=1, keepdims=True))
        return neg(mean(ad.tsum(ad.mul(ad.add(logits, neg(lse)), ad.constant(onehot)), axis=1)))

    for i, leaf in enumerate([W1, b1, W2, b2]):
        others = [W1, b1, W2, b2]

        def f(t):
            args = others.copy()
            args[i] = t
            return ce(*args)

        report = finite_diff_check(f, leaf, 1e-5)
        assert report.max_rel_error <= 1e-6


def test_grad_requires_scalar_objective():
    with pytest.raises(ContractError):
        grad(lambda x: ad.mul(x, x), [Tensor(np.array([1.0, 2.0]))])


def test_grad_linearity():
    rng = RngStream(5)
    x0 = rng.normal(0, 1, (7,))
    a, b = 2.5, -1.25

    def f(x):
        return ad.tsum(ad.mul(x, ad.mul(x, x)))

    def g(x):
        return ad.tsum(texp(ad.mul(x, ad.constant(0.3))))

    def combo(x):
        return ad.add(ad.mul(ad.constant(a), f(x)), ad.mul(ad.constant(b), g(x)))

    gf = grad(f, [Tensor(x0)])[0].data
    gg = grad(g, [Tensor(x0)])[0].data
    gc = grad(combo, [Tensor(x0)])[0].data
    np.testing.assert_allclose(gc, a * gf + b * gg, atol=1e-12)


def test_second_order_by_rerecording():
    x = Tensor(2.0)
    first = backward(power(x, 3.0), [x])[0]
    second = backward(first, [x])[0]
    assert second.data == pytest.approx(12.0)


@pytest.mark.parametrize("a_shape, b_shape", [((3,), (3, 2)), ((2, 3), (3,)), ((3,), (3,)), ((2, 2, 3), (3, 2))])
def test_matmul_takes_only_2d_operands(a_shape, b_shape):
    with pytest.raises(ContractError, match="2-D"):
        matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))


@settings(max_examples=200, deadline=None)
@given(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=4, max_side=3), st.integers(0, 2**32 - 1))
def test_add_and_mul_adjoints_have_their_operands_shapes(shapes, seed):
    # after the leading-axis and keepdims sums a broadcast operand's adjoint has its shape; no reshape is needed
    (a_shape, b_shape), out_shape = shapes
    rng = RngStream(seed)
    a, b = Tensor(rng.normal(0, 1, a_shape)), Tensor(rng.normal(0, 1, b_shape))
    weights, va, vb = rng.normal(0, 1, out_shape), rng.normal(0, 1, a_shape), rng.normal(0, 1, b_shape)
    # each op's derivative along (u, v), for the adjoint identity <g_a, u> = sum(weights * d(op)(u, 0))
    for op, d_op in ((ad.add, lambda u, v: u + v), (ad.mul, lambda u, v: u * b.data + a.data * v)):
        ga, gb = backward(ad.tsum(ad.mul(op(a, b), ad.constant(weights))), [a, b])
        assert ga.shape == a_shape and gb.shape == b_shape
        assert np.isclose(np.sum(ga.data * va), np.sum(weights * d_op(va, 0.0)))
        assert np.isclose(np.sum(gb.data * vb), np.sum(weights * d_op(0.0, vb)))


def test_non_finite_rejected():
    # primitives leave numpy's warnings to the package's entry points, which silence them
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1.0, np.inf]))
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
        tlog(Tensor(0.0))  # -inf
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        texp(Tensor(1000.0))  # overflow to +inf
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        ad.mul(Tensor(1e200), Tensor(1e200))  # overflow to +inf
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
        power(Tensor(0.0), -1)  # division by zero
    with pytest.raises(NonFiniteError):
        Tensor(np.array([[0.0, np.nan]]))


# ---------------------------------------------------------------------------
# unrolled gradient
# ---------------------------------------------------------------------------


def adv_grad_of(adv):
    """unrolled_grad's adv_grad: the gradient of `adv` at the updated parameters."""

    def adv_grad(updated):
        leaves = [Tensor(p) for p in updated]
        return [g.data for g in backward(adv(leaves), leaves)]

    return adv_grad


def test_unrolled_grad_scalar_chain():
    # train = (theta - x)^2, adv = theta^2, theta=1, x=0, lr=0.1:
    # theta+ = 0.8, d theta+/dx = 0.2, d adv/dx = 2 * 0.8 * 0.2 = 0.32
    def train(ps, d):
        return power(ad.add(ps[0], neg(d)), 2.0)

    def adv(ps):
        return power(ps[0], 2.0)

    meta, updated, train_out = unrolled_grad(train, adv_grad_of(adv), [Tensor(1.0)], Tensor(0.0), 0.1)
    assert meta == pytest.approx(0.32, abs=1e-12)
    assert updated[0] == pytest.approx(0.8, abs=1e-12)
    assert train_out.item() == 1.0


def test_unrolled_grad_constant_adv_loss_is_zero():
    def train(ps, d):
        return ad.tsum(ad.mul(ps[0], d))

    def adv(ps):
        return ad.constant(7.0)

    meta, _, _ = unrolled_grad(train, adv_grad_of(adv), [Tensor(np.ones(4))], Tensor(np.ones(4)), 0.5)
    np.testing.assert_array_equal(meta, np.zeros(4))


def test_unrolled_grad_rejects_bad_lr():
    with pytest.raises(ParameterError):
        unrolled_grad(lambda p, d: ad.mul(p[0], d), lambda u: u, [Tensor(1.0)], Tensor(1.0), 0.0)


def test_unrolled_grad_matches_finite_differences_on_mlp():
    rng = RngStream(11)
    sizes = [(2, 8), (8,), (8, 2), (2,)]
    params0 = [rng.normal(0, 0.7, s) for s in sizes]
    X0 = rng.normal(0, 1, (4, 2))
    X_adv = X0 + rng.normal(0, 0.2, (4, 2))
    onehot = np.zeros((4, 2))
    onehot[np.arange(4), np.array([0, 1, 1, 0])] = 1.0
    lr = 0.05

    def net(ps, X):
        h = relu(ad.add(matmul(X, ps[0]), ps[1]))
        logits = ad.add(matmul(h, ps[2]), ps[3])
        lse = tlog(ad.tsum(texp(logits), axis=1, keepdims=True))
        return neg(mean(ad.tsum(ad.mul(ad.add(logits, neg(lse)), ad.constant(onehot)), axis=1)))

    def train(ps, d):
        return net(ps, d)

    def adv(ps):
        return net(ps, ad.constant(X_adv))

    meta, _, _ = unrolled_grad(train, adv_grad_of(adv), [Tensor(p) for p in params0], Tensor(X0), lr)

    def composed(Xv):
        leaves = [Tensor(p) for p in params0]
        gs = backward(train(leaves, Tensor(Xv)), leaves)
        updated = [Tensor(p.data - lr * g.data) for p, g in zip(leaves, gs)]
        return float(adv(updated).data)

    h = 1e-5
    numeric = np.zeros_like(X0)
    for i in range(X0.shape[0]):
        for j in range(X0.shape[1]):
            e = np.zeros_like(X0)
            e[i, j] = h
            numeric[i, j] = (composed(X0 + e) - composed(X0 - e)) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(meta), np.abs(numeric)), 1e-8)
    assert np.max(np.abs(meta - numeric) / denom) <= 1e-4


# ---------------------------------------------------------------------------
# finite-difference checker
# ---------------------------------------------------------------------------


def test_finite_diff_smooth_polynomial():
    report = finite_diff_check(lambda x: power(x, 3.0), Tensor(2.0), 1e-5)
    assert report.max_rel_error <= 1e-8
    assert report.n_non_comparable == 0


def test_finite_diff_flags_hinge_kink():
    # margin exactly 1: the stencil straddles the kink
    def f(x):
        return ad.tsum(relu(ad.add(ad.constant(1.0), neg(x))))

    report = finite_diff_check(f, Tensor(np.array([1.0])), 1e-5)
    assert report.n_non_comparable == 1


def test_finite_diff_quadratic_form():
    rng = RngStream(20)
    A = rng.normal(0, 1, (20, 20))
    A = (A + A.T) / 2
    x0 = rng.normal(0, 1, (20, 1))

    def f(x):
        return ad.tsum(matmul(transpose(x), matmul(ad.constant(A), x)))

    report = finite_diff_check(f, Tensor(x0), 1e-6)
    assert report.max_rel_error <= 1e-7
    analytic = grad(f, [Tensor(x0)])[0].data
    np.testing.assert_allclose(analytic, 2 * A @ x0, atol=1e-10)


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ParameterError):
        finite_diff_check(lambda x: ad.mul(x, x), Tensor(1.0), 0.0)


# ---------------------------------------------------------------------------
# randomized expression fuzzing
# ---------------------------------------------------------------------------


def random_smooth_expression(rng: RngStream, x: Tensor) -> Tensor:
    """A random scalar expression over x built from smooth primitives."""
    A = ad.constant(rng.normal(0, 1, (x.size, x.size)))
    b = ad.constant(rng.normal(0, 1, (x.size,)).reshape(-1, 1))
    column = ad.reshape(x, (x.size, 1))
    h = matmul(A, column)
    choice = int(rng.integers(0, 4))
    if choice == 0:
        h = texp(ad.mul(h, ad.constant(0.3)))
    elif choice == 1:
        h = tlog(ad.add(ad.mul(h, h), ad.constant(1.0)))
    elif choice == 2:
        h = power(ad.add(ad.mul(h, h), ad.constant(0.5)), 1.5)
    else:
        h = ad.mul(h, texp(neg(ad.mul(h, ad.constant(0.1)))))
    return ad.mul(ad.tsum(ad.mul(h, b)), ad.constant(1.0 / x.size))


def test_fuzz_first_order_against_finite_differences():
    for trial in range(25):
        rng = RngStream(1000 + trial)
        x = Tensor(rng.normal(0, 1, (int(rng.integers(2, 7)),)))
        expr_rng = rng.child(1)
        report = finite_diff_check(lambda t: random_smooth_expression(RngStream(expr_rng.seed), t), x, 1e-6)
        assert report.max_rel_error <= 1e-5, f"trial {trial}: {report}"


def test_fuzz_hessian_vector_products_against_finite_differences():
    # grad-of-grad through the re-recorded tape vs central differences of grad
    for trial in range(15):
        rng = RngStream(2000 + trial)
        n = int(rng.integers(2, 6))
        x0 = rng.normal(0, 1, (n,))
        v = rng.normal(0, 1, (n,))
        expr_seed = rng.child(1).seed

        def f(t):
            return random_smooth_expression(RngStream(expr_seed), t)

        x = Tensor(x0)
        g = backward(f(x), [x])[0]
        hvp = backward(ad.tsum(ad.mul(g, ad.constant(v))), [x])[0].data

        h = 1e-5
        gp = grad(f, [Tensor(x0 + h * v)])[0].data
        gm = grad(f, [Tensor(x0 - h * v)])[0].data
        numeric = (gp - gm) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(hvp), np.abs(numeric)), 1e-6)
        assert np.max(np.abs(hvp - numeric) / denom) <= 1e-4, f"trial {trial}"


# ---------------------------------------------------------------------------
# pruned backward against the every-edge reference
# ---------------------------------------------------------------------------


def topo_order(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    return order


def backward_every_edge(output, inputs, adjoint=None):
    """Reference: backward that forms an adjoint for every parent of every node."""
    if adjoint is None and output.shape != ():
        raise ContractError(f"objective must be scalar, got shape {output.shape}")
    if adjoint is not None and np.shape(adjoint) != output.shape:
        raise ContractError(f"adjoint shape {np.shape(adjoint)} does not match output shape {output.shape}")
    adjoints = {id(output): ad.constant(1.0 if adjoint is None else adjoint)}
    for node in reversed(topo_order(output)):
        g = adjoints.get(id(node))
        if g is None or node._vjp is None:
            continue
        for parent, vjp in zip(node._parents, node._vjp):
            pg = vjp(g)
            prev = adjoints.get(id(parent))
            adjoints[id(parent)] = pg if prev is None else ad.add(prev, pg)
    return [adjoints.get(id(t), ad.constant(np.zeros(t.shape))) for t in inputs]


def assert_bit_identical(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))  # signed zeros too


def with_backward(impl, run, graph=None):
    """run() with autodiff.backward replaced by `impl` (learner_batch and gradcheck's unrolled_grad
    look it up there) and, given a `graph`, the learner's batch_loss_graph by it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "backward", impl)
        if graph is not None:
            mp.setattr(learning, "batch_loss_graph", graph)
        return run()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(1e-3, 10.0))
def test_pruned_backward_matches_every_edge_on_expressions(seed, n, lr):
    rng = RngStream(seed)
    x0, d0, v = rng.normal(0, 1, (n,)), rng.normal(0, 1, (n,)), rng.normal(0, 1, (n,))
    expr_seed = rng.child(1).seed

    def first_order():
        x = Tensor(x0)
        return [g.data for g in ad.backward(random_smooth_expression(RngStream(expr_seed), x), [x])]

    def unrolled():
        def train(ps, d):
            return random_smooth_expression(RngStream(expr_seed), ad.mul(ps[0], d))

        meta, updated, _ = unrolled_grad(train, lambda updated: [v], [Tensor(x0)], Tensor(d0), lr)
        return [meta, *updated]

    for run in (first_order, unrolled):
        assert_bit_identical(run(), with_backward(backward_every_edge, run))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=6, max_size=6))
def test_adjoint_seeds_the_inner_products_backward(seed, n, zeroed):
    # backward(out, inputs, v) is backward(<out, v>, inputs) without the inner product: the
    # seed 1.0 reaches out as 1.0 * v, which is v in every bit, signed zeros included
    rng = RngStream(seed)
    x0, v = rng.normal(0, 1, (n,)), rng.normal(0, 1, (n,))
    v = np.array([vi if z is None else z for vi, z in zip(v, zeroed)])  # some entries 0.0 or -0.0
    expr_seed = rng.child(1).seed
    for impl in (ad.backward, backward_every_edge):
        x = Tensor(x0)
        out = random_smooth_expression(RngStream(expr_seed), x)
        # a gradient (so a Hessian-vector product), x * out, and x * x, whose diagonal
        # Jacobian carries a zero adjoint entry's sign into the result
        for vector in (impl(out, [x])[0], ad.mul(x, out), ad.mul(x, x)):
            got = [g.data for g in impl(vector, [x], v)]
            assert_bit_identical(got, [g.data for g in impl(ad.tsum(ad.mul(vector, ad.constant(v))), [x])])


@pytest.mark.parametrize("impl", [ad.backward, backward_every_edge])
def test_adjoint_must_have_the_outputs_shape(impl):
    x = Tensor(np.array([1.0, 2.0, 3.0]))
    out = ad.mul(x, x)
    with pytest.raises(ContractError, match="must be scalar"):
        impl(out, [x])  # a non-scalar output still needs an adjoint
    for wrong in (np.ones(2), np.ones((3, 1)), np.ones(()), 1.0):
        with pytest.raises(ContractError, match="adjoint shape"):
            impl(out, [x], wrong)
    with pytest.raises(ContractError, match="adjoint shape"):
        impl(ad.tsum(out), [x], np.ones(1))  # a scalar output takes a 0-d adjoint, and only that
    assert np.array_equal(impl(ad.tsum(out), [x], np.float64(-2.0))[0].data, [-4.0, -8.0, -12.0])


# integer values make hinge and relu kinks common; the floats exercise rounding
mixed_entries = st.one_of(st.integers(-3, 3).map(float), st.floats(-3, 3))


@st.composite
def learner_batches(draw):
    """A one-epoch learner run of one or two batches: (dataset, factory, config)."""
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):
        w0 = np.array(draw(st.lists(mixed_entries, min_size=d, max_size=d)))
        factory = lambda seed: LinearClassifier(w0)
    else:
        factory = model_factory("mlp:8", d)
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    X = np.where(rows.random((n, d)) < 0.5, rows.integers(-3, 4, (n, d)), rows.uniform(-3, 3, (n, d)))
    labels = rows.choice([-1, 1], n)
    cfg = RobustLearnConfig(
        epochs=1,
        gamma=draw(st.sampled_from([0.05, 1.0]) | st.floats(1e-3, 10.0)),
        beta=0.01,
        attack=AttackConfig(eps=0.5, steps=2),
        batch_size=draw(st.integers(max(1, n // 2), n)),
        theta0_seed=draw(st.integers(0, 3)),
        lam=draw(st.sampled_from([0.0, 1e-3]) | st.floats(0.0, 1.0)),
    )
    return Dataset(X, labels), factory, cfg


def recorded_learn(impl, train, factory, cfg, graph=None):
    """Every backward result and every (meta, updated) of a learner run, and its learned features."""
    calls = []
    batch = learning.learner_batch

    def recording_backward(output, inputs, adjoint=None):
        adjoints = impl(output, inputs, adjoint)
        calls.append([g.data for g in adjoints])
        return adjoints

    def recording_batch(*args):
        meta, updated, train_out, adv_loss = batch(*args)
        calls.append([meta, updated])
        return meta, updated, train_out, adv_loss

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "learner_batch", recording_batch)
        mp.setattr(ad, "backward", recording_backward)
        if graph is not None:
            mp.setattr(learning, "batch_loss_graph", graph)
        learned, _ = learn_robust_dataset(train, factory, cfg, RngStream(0))
    return calls, learned.features


@settings(max_examples=150, deadline=None)
@given(learner_batches())
def test_pruned_backward_matches_every_edge_on_learner_batches(case):
    # the reference is every edge on the tape graph; a linear run's production graph is the fused hinge node
    train, factory, cfg = case
    got_calls, got = recorded_learn(ad.backward, train, factory, cfg)
    ref_calls, ref = recorded_learn(backward_every_edge, train, factory, cfg, tape_loss_graph)
    assert len(got_calls) == len(ref_calls)
    for a, b in zip(got_calls, ref_calls):
        assert_bit_identical(a, b)
    assert np.array_equal(got, ref)


def parity_factory(family, scale):
    if family == "linear":
        return lambda seed: LinearClassifier(scale * np.array([1.0, -2.0, 0.5]))
    base = MlpClassifier.init([3, 4, 2], RngStream(5))
    return lambda seed: MlpClassifier([W * scale for W in base.weights], base.biases)


def learn_outcome(family, scale, gamma, x, mode=learning.META_GRADIENT):
    """The features a one-batch learner run learns, or None if it raised NonFiniteError."""
    train = Dataset(x * np.array([[1.0, -0.5, 0.25], [-1.0, 0.5, 0.0]]), np.array([1, -1]))
    cfg = RobustLearnConfig(epochs=1, gamma=gamma, beta=0.01, attack=AttackConfig(eps=0.8, steps=3), mode=mode)
    try:
        learned, _ = learn_robust_dataset(train, parity_factory(family, scale), cfg, RngStream(0))
    except NonFiniteError:
        return None
    return learned.features


# (family, weight scale, gamma, row value) where only the every-edge reference
# on the tape graph raised. Each is the meta pass's adjoint of the hinge
# coefficients c, the vector in grad = X.T @ c + 2*lam*w: that adjoint is
# X @ g, with g the adversarial-loss gradient, and it overflows on rows this
# large. c is built from y, the relu mask and 1/B alone, so it depends on no
# data and the pruned backward does not form it, and the fused hinge node has
# no c node at all; meta = -gamma * outer(c, g) stays finite.
PRUNED_ONLY_RAISES = {
    *(("linear", 1e-100, gamma, x) for gamma in (1e10, 1e100) for x in (1e200, 1e300, 1e308, 1.7e308, 1.79e308)),
    ("linear", 1.0, 1e10, 1e200),
    ("linear", 1.0, 1e10, 1e300),
    ("linear", 1.0, 1e100, 1e200),
}


PARITY_ROWS = (0.0, 1.0, -1.0, 1e100, 1e200, 1e300, 1e308, -1e308, 1.7e308, 1.79e308)


@pytest.mark.parametrize("family", ["linear", "mlp"])
def test_pruned_backward_non_finite_parity(family):
    grid = itertools.product((1e-100, 1.0), (0.05, 1e10, 1e100, 1e300), PARITY_ROWS)
    raised = 0
    for scale, gamma, x in grid:
        case = (family, scale, gamma, x)
        got = learn_outcome(*case)
        ref = with_backward(backward_every_edge, lambda: learn_outcome(*case), tape_loss_graph)
        raised += ref is None
        if case in PRUNED_ONLY_RAISES:
            assert ref is None and got is not None and np.isfinite(got).all(), case
        elif ref is None:
            assert got is None, case
        else:
            assert got is not None and np.array_equal(got, ref), case
        # the fused node against the tape graph, both pruned: equal in every case
        tape = with_backward(ad.backward, lambda: learn_outcome(*case), tape_loss_graph)
        assert (got is None and tape is None) or (got is not None and np.array_equal(got, tape)), case
    assert raised > 0  # the grid reaches overflow


def inner_product_backward(output, inputs, adjoint=None):
    """backward taking an adjoint's vjp as the gradient of <output, adjoint>, which it forms."""
    if adjoint is not None:
        output = ad.tsum(ad.mul(output, ad.constant(adjoint)))
    return backward(output, inputs)


# (family, mode, weight scale, gamma, row value) where only the inner-product
# form raised: the meta-gradient's vjp never forms <G, g>, and here that unused
# scalar alone overflows while G, g and the meta-gradient outer(c, g) are finite
INNER_PRODUCT_ONLY_RAISES = {("linear", learning.ALTERNATING, 1e-100, 0.05, -1e308)}


@pytest.mark.parametrize("family", ["linear", "mlp"])
def test_meta_gradient_vjp_non_finite_parity(family):
    modes = (learning.META_GRADIENT, learning.ALTERNATING)
    grid = itertools.product(modes, (1e-100, 1.0, 1e100, 1e150), (0.05, 1e10, 1e100, 1e300), PARITY_ROWS)
    raised = 0
    for mode, scale, gamma, x in grid:
        case = (family, mode, scale, gamma, x)
        got = learn_outcome(family, scale, gamma, x, mode)
        ref = with_backward(inner_product_backward, lambda: learn_outcome(family, scale, gamma, x, mode))
        raised += ref is None
        if case in INNER_PRODUCT_ONLY_RAISES:
            assert ref is None and got is not None and np.isfinite(got).all(), case
        elif ref is None:
            assert got is None, case
        else:
            assert got is not None and np.array_equal(got, ref), case
    assert raised > 0


def count_tensors(monkeypatch) -> list:
    """Patch Tensor.__init__ to append to the returned list once per tensor built."""
    built = []
    init = Tensor.__init__

    def counted_init(tensor, *args, **kwargs):
        built.append(tensor)
        init(tensor, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted_init)
    return built


def test_backward_builds_only_adjoints(monkeypatch):
    a, b, off_path = Tensor(2.0), Tensor(3.0), Tensor(np.ones((2, 3)))
    out = ad.add(a, b)
    built = count_tensors(monkeypatch)
    ga, gb = backward(out, [a, b])
    assert built == [ga] and gb is ga  # the seed adjoint, which add passes on to both parents
    assert ga.item() == 1.0
    built.clear()
    ga, gb, g_off = backward(out, [a, b, off_path])
    assert built == [ga, g_off]  # the seed and the zeros of the one input off the path
    assert np.array_equal(g_off.data, np.zeros((2, 3))) and not np.signbit(g_off.data).any()


@pytest.mark.parametrize("arch, tensors", [("linear", 15), ("mlp:8-8", 15)])
def test_tensors_per_learner_batch(monkeypatch, arch, tensors):
    # both objectives are one fused node over (X, theta), and the meta-gradient is
    # backward(G, [X], g), one vjp; 21 when it differentiated tsum(mul(G, constant(g))):
    # the inner product's 3 nodes, a 1.0 seed, 2 nodes broadcasting that seed and 1
    # multiplying it by g, in place of the one seed g; mlp:8-8 built 280 as
    # primitives over per-parameter leaves, and 286 when the ridge sum started
    # from constant(0.0) and the log-softmax shift was neg(constant(max));
    # 115 and 387 when backward formed an adjoint for every parent of every node;
    # linear 82 with the hinge as 15 tape primitives instead of one fused node;
    # 26 and 301 when backward built zeros for every input and the meta-gradient's
    # inner product started from constant(0.0)
    train = sample(DistributionSpec(d=20, mu=0.4, p=0.9), 256, RngStream(3))
    cfg = RobustLearnConfig(epochs=1, gamma=0.05, beta=0.01, attack=AttackConfig(eps=0.8, steps=10))
    factory = model_factory(arch, 21)
    built = count_tensors(monkeypatch)
    learn_robust_dataset(train, factory, cfg, RngStream(0))
    assert len(built) == 2 * tensors  # 256 rows in batches of 128


def learner_train_set():
    return sample(DistributionSpec(d=20, mu=0.4, p=0.9), 256, RngStream(3))


def network_batch():
    rng = RngStream(41)
    model = MlpClassifier.init([5, 8, 8, 3], rng)
    return model, flatten(model.params()), rng.normal(0, 1, (16, 5)), np.arange(16) % 3


def network_loss_and_backward():
    model, theta, X, y = network_batch()
    leaves = [Tensor(theta)]
    backward(batch_loss_graph(model, leaves, Tensor(X), y, 1e-3), leaves)


def network_learner_batch():
    model, theta, X, y = network_batch()
    cfg = RobustLearnConfig(epochs=1, gamma=0.1, beta=0.01, attack=AttackConfig(eps=0.8, steps=2))
    learning.learner_batch(model, theta, X, X, y, cfg, cfg.attack)


def network_learn():
    cfg = RobustLearnConfig(epochs=1, gamma=0.05, beta=0.01, attack=AttackConfig(eps=0.8, steps=2))
    learn_robust_dataset(learner_train_set(), model_factory("mlp:8-8", 21), cfg, RngStream(0))


def network_sgd_train():
    sgd_train(model_factory("mlp:8-8", 21)(0), learner_train_set(), TrainConfig(epochs=1))


@pytest.mark.parametrize("run", [network_loss_and_backward, network_learner_batch, network_learn, network_sgd_train])
def test_network_tapes_leave_no_cyclic_garbage(run):
    # refcounting alone must free each tape when its batch ends: a vjp that
    # held its own node strongly would make every network tape a reference cycle
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# rng
# ---------------------------------------------------------------------------


def test_sample_gaussian_zero_std():
    assert np.array_equal(RngStream(1).normal(0.0, 0.0, (3,)), np.zeros(3))
    s = RngStream(1)
    np.testing.assert_array_equal(s.normal(5.0, 0.0, (2,)), np.full(2, 5.0))
    assert s.counter == 1  # a zero-std draw still advances the stream


def test_sample_gaussian_law_of_large_numbers():
    draws = RngStream(7).normal(0.0, 1.0, (10**6,))
    assert abs(draws.mean()) <= 0.005
    assert abs(draws.std() - 1.0) <= 0.005


def test_sample_gaussian_rejects_negative_std():
    with pytest.raises(ParameterError):
        RngStream(1).normal(0.0, -1.0, (3,))


def test_rng_state_determinism():
    a = RngStream(9)
    b = RngStream(9)
    for _ in range(3):
        np.testing.assert_array_equal(a.normal(0, 1, (4,)), b.normal(0, 1, (4,)))
    assert a.counter == b.counter == 3


def test_rng_counter_advances_and_changes_draws():
    s = RngStream(9)
    first = s.normal(0, 1, (4,))
    second = s.normal(0, 1, (4,))
    assert not np.array_equal(first, second)


def test_rng_generator_is_not_part_of_the_state():
    drawn = RngStream(9)
    drawn.normal(0, 1, (4,))
    assert drawn == RngStream(9, 1) and repr(drawn) == repr(RngStream(9, 1)) == "RngStream(seed=9, counter=1)"


seeds = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1]))


@settings(max_examples=300, deadline=None)
@given(seeds, seeds)
def test_rng_key_is_numpys_tuple_key(seed, counter):
    # every draw used to build Generator(Philox(key=pair)); a stream re-keys one generator with philox_key(pair)
    stream = RngStream(seed, counter)
    for draw in (lambda g: g.permutation(50), lambda g: g.normal(0.0, 1.0, 5)):
        pair = (rng_module._mix64(seed ^ rng_module._mix64(stream.counter)), seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fresh = np.random.Philox(key=pair)
        assume(not caught)  # a value rounding to 2^64: numpy's float-to-uint64 cast is invalid, platform-defined
        assert philox_key(pair) == tuple(fresh.state["state"]["key"].tolist())
        assert np.array_equal(draw(stream._generator()), draw(np.random.Generator(fresh)))


def test_rng_key_maps_two_to_the_64_to_zero():
    # 2^64 - 1 next to a value below 2^63 goes through float64 and rounds to 2^64
    assert philox_key((5, 2**64 - 1)) == (5, 0)
    assert philox_key((2**64 - 1, 2**64 - 1)) == (2**64 - 1, 2**64 - 1)  # both uint64: no float64


def test_rng_draws_of_the_top_seed_emit_no_warning():
    # RngStream(-1) is seed 2^64 - 1, and numpy's cast of its key warned "invalid value encountered in cast"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stream = RngStream(-1)
        for _ in range(20):
            stream.normal(0, 1, (2,))


def test_rng_children_are_independent_streams():
    base = RngStream(9)
    c1, c2 = base.child(1), base.child(2)
    assert c1.seed != c2.seed
    assert not np.array_equal(c1.normal(0, 1, (8,)), c2.normal(0, 1, (8,)))
    # deriving a child does not disturb the parent
    np.testing.assert_array_equal(RngStream(9).normal(0, 1, (4,)), base.normal(0, 1, (4,)))
