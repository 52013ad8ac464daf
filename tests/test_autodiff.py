import numpy as np
import pytest

from robustdata import autodiff as ad
from robustdata.autodiff import Tensor, backward, unrolled_grad
from robustdata.errors import ContractError, NonFiniteError, ParameterError
from robustdata.rng import RngStream

from gradcheck import finite_diff_check, grad


def test_grad_square():
    g = grad(lambda x: ad.mul(x, x), [Tensor(3.0)])[0]
    assert g.data == 6.0


def test_grad_hinge_flat_region():
    # margin above 1: the hinge is flat, gradient is zero
    w = Tensor(np.array([2.0, 0.0]))
    x = np.array([2.0, 5.0])

    def f(wt):
        return ad.relu(ad.add(ad.constant(1.0), ad.neg(ad.matmul(wt, ad.constant(x)))))

    g = grad(f, [w])[0]
    np.testing.assert_array_equal(g.data, np.zeros(2))


def test_grad_matches_finite_differences_on_mlp():
    rng = RngStream(3)
    W1, b1 = Tensor(rng.normal(0, 1, (4, 8))), Tensor(rng.normal(0, 1, (8,)))
    W2, b2 = Tensor(rng.normal(0, 1, (8, 3))), Tensor(rng.normal(0, 1, (3,)))
    X = rng.normal(0, 1, (5, 4))
    onehot = np.zeros((5, 3))
    onehot[np.arange(5), np.array([0, 2, 1, 1, 0])] = 1.0

    def ce(w1, bb1, w2, bb2):
        h = ad.relu(ad.add(ad.matmul(ad.constant(X), w1), bb1))
        logits = ad.add(ad.matmul(h, w2), bb2)
        lse = ad.tlog(ad.tsum(ad.texp(logits), axis=1, keepdims=True))
        return ad.neg(ad.mean(ad.tsum(ad.mul(ad.add(logits, ad.neg(lse)), ad.constant(onehot)), axis=1)))

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
        return ad.tsum(ad.texp(ad.mul(x, ad.constant(0.3))))

    def combo(x):
        return ad.add(ad.mul(ad.constant(a), f(x)), ad.mul(ad.constant(b), g(x)))

    gf = grad(f, [Tensor(x0)])[0].data
    gg = grad(g, [Tensor(x0)])[0].data
    gc = grad(combo, [Tensor(x0)])[0].data
    np.testing.assert_allclose(gc, a * gf + b * gg, atol=1e-12)


def test_second_order_by_rerecording():
    x = Tensor(2.0)
    first = backward(ad.power(x, 3.0), [x])[0]
    second = backward(first, [x])[0]
    assert second.data == pytest.approx(12.0)


def test_non_finite_rejected():
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1.0, np.inf]))
    with pytest.raises(NonFiniteError):
        ad.tlog(Tensor(0.0))  # -inf
    with pytest.raises(NonFiniteError):
        ad.texp(Tensor(1000.0))  # overflow to +inf
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        ad.mul(Tensor(1e200), Tensor(1e200))  # overflow to +inf
    with pytest.raises(NonFiniteError):
        ad.power(Tensor(0.0), -1)  # division by zero
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
        return ad.power(ad.add(ps[0], ad.neg(d)), 2.0)

    def adv(ps):
        return ad.power(ps[0], 2.0)

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
        h = ad.relu(ad.add(ad.matmul(X, ps[0]), ps[1]))
        logits = ad.add(ad.matmul(h, ps[2]), ps[3])
        lse = ad.tlog(ad.tsum(ad.texp(logits), axis=1, keepdims=True))
        return ad.neg(ad.mean(ad.tsum(ad.mul(ad.add(logits, ad.neg(lse)), ad.constant(onehot)), axis=1)))

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
    report = finite_diff_check(lambda x: ad.power(x, 3.0), Tensor(2.0), 1e-5)
    assert report.max_rel_error <= 1e-8
    assert report.n_non_comparable == 0


def test_finite_diff_flags_hinge_kink():
    # margin exactly 1: the stencil straddles the kink
    def f(x):
        return ad.tsum(ad.relu(ad.add(ad.constant(1.0), ad.neg(x))))

    report = finite_diff_check(f, Tensor(np.array([1.0])), 1e-5)
    assert report.n_non_comparable == 1


def test_finite_diff_quadratic_form():
    rng = RngStream(20)
    A = rng.normal(0, 1, (20, 20))
    A = (A + A.T) / 2
    x0 = rng.normal(0, 1, (20,))

    def f(x):
        return ad.matmul(x, ad.matmul(ad.constant(A), x))

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
    b = ad.constant(rng.normal(0, 1, (x.size,)))
    flat = ad.reshape(x, (x.size,))
    h = ad.matmul(A, flat)
    choice = int(rng.integers(0, 4))
    if choice == 0:
        h = ad.texp(ad.mul(h, ad.constant(0.3)))
    elif choice == 1:
        h = ad.tlog(ad.add(ad.mul(h, h), ad.constant(1.0)))
    elif choice == 2:
        h = ad.power(ad.add(ad.mul(h, h), ad.constant(0.5)), 1.5)
    else:
        h = ad.mul(h, ad.texp(ad.neg(ad.mul(h, ad.constant(0.1)))))
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


def test_rng_children_are_independent_streams():
    base = RngStream(9)
    c1, c2 = base.child(1), base.child(2)
    assert c1.seed != c2.seed
    assert not np.array_equal(c1.normal(0, 1, (8,)), c2.normal(0, 1, (8,)))
    # deriving a child does not disturb the parent
    np.testing.assert_array_equal(RngStream(9).normal(0, 1, (4,)), base.normal(0, 1, (4,)))
