"""Reference implementations for the tests: `grad`, `unrolled_grad`,
central finite differences, both model objectives written in tape
primitives, and a Monte-Carlo oracle for the closed-form accuracies.

Nothing in the package calls these; the tests and the acceptance gate
(criteria 6 and 7) compare the package against them. `tape_loss_graph` is
both model families' objective in tape primitives, and `tape_parts` its
(loss, grad, meta_of), the gradient G and its vjp formed by `backward`: the
bit-exact reference for `models.batch_loss_graph`'s numpy closed forms.
`unrolled_grad` is the generic form of `learning.learner_batch`'s steps 1
and 3: it differentiates the inner product <G, g> whose derivative
learner_batch takes as one vjp, backward(G, [X], g), and is that vjp's
bit-exact reference. The package's tape keeps only the primitives that
`backward` builds and `mul`; the ones the objectives need are defined
here: `neg`, `power`, `texp`, `tlog`, `relu`, `mean`, `transpose` and
`matmul` (2-D), the 1-D products `dot` and `outer` of the linear
references, and `take`, which cuts one parameter out of the flat `theta`.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Sequence

import numpy as np

from robustdata import autodiff as ad
from robustdata.autodiff import Tensor, backward, constant, mul
from robustdata.errors import ContractError, ParameterError
from robustdata.models import LinearClassifier
from robustdata.rng import RngStream
from robustdata.theory import DistributionSpec, sample


def grad(objective: Callable[..., Tensor], inputs: Sequence[Tensor]) -> list[Tensor]:
    """Evaluate `objective(*inputs)` and return d(objective)/d(input) for each input."""
    out = objective(*inputs)
    if not isinstance(out, Tensor):
        raise ContractError("objective must return a Tensor")
    return backward(out, inputs)


def unrolled_grad(
    train_loss: Callable[[Sequence[Tensor], Tensor], Tensor],
    adv_grad: Callable[[list[np.ndarray]], Sequence[np.ndarray]],
    params: Sequence[Tensor],
    data: Tensor,
    lr: float,
) -> tuple[np.ndarray, list[np.ndarray], Tensor]:
    """Gradient w.r.t. data of an adversarial loss through one descent step.

    Takes the step updated = params - lr * d(train_loss)/d(params), calls
    adv_grad(updated) for g (one array per parameter, treated as constant)
    and returns (meta, updated, train_out), where
    meta = -lr * d/d(data) < d(train_loss)/d(params), g >. When g is the
    adversarial-loss gradient at `updated`, meta is the derivative of that
    loss through the step. `backward` is looked up on the autodiff module at
    each call, so a test may patch it there.
    """
    if lr <= 0:
        raise ParameterError(f"lr must be positive, got {lr}")
    train_out = train_loss(params, data)
    param_grads = ad.backward(train_out, params)
    updated = [p.data - lr * g.data for p, g in zip(params, param_grads)]
    inner = reduce(ad.add, [ad.tsum(mul(pg, constant(g))) for pg, g in zip(param_grads, adv_grad(updated))])
    meta = -lr * ad.backward(inner, [data])[0].data
    return meta, updated, train_out


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.data, (a,), (neg,))


def power(a: Tensor, k: float) -> Tensor:
    k = float(k)
    return Tensor(a.data**k, (a,), (lambda g: mul(g, mul(constant(k), power(a, k - 1.0))),))


def texp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data), (a,), None)
    out._vjp = (lambda g: mul(g, out),)  # a reference cycle: the cyclic GC frees this tape
    return out


def tlog(a: Tensor) -> Tensor:
    return Tensor(np.log(a.data), (a,), (lambda g: mul(g, power(a, -1.0)),))


def relu(a: Tensor) -> Tensor:
    mask = (a.data > 0).astype(np.float64)  # strict: subgradient 0 at the kink
    return Tensor(a.data * mask, (a,), (lambda g: mul(g, constant(mask)),))


def mean(a: Tensor) -> Tensor:
    return mul(ad.tsum(a), constant(1 / a.size))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ContractError("transpose expects a 2-D tensor")
    return Tensor(a.data.T, (a,), (transpose,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ContractError(f"the tape is 2-D: matmul takes two 2-D operands, got ndim {a.data.ndim} "
                            f"and {b.data.ndim}")
    return Tensor(a.data @ b.data, (a, b), (lambda g: matmul(g, transpose(b)), lambda g: matmul(transpose(a), g)))


def dot(a: Tensor, v: Tensor) -> Tensor:
    """a @ v on the tape for a vector v and a matrix or vector a.

    A matrix's adjoint is np.outer, whose signed zeros a (B,1)@(1,d) product does not keep.
    """
    if v.data.ndim != 1 or a.data.ndim not in (1, 2):
        raise ContractError(f"dot takes a 1-D or 2-D and a 1-D operand, got ndim {a.data.ndim} and {v.data.ndim}")
    if a.data.ndim == 1:
        vjps = (lambda g: mul(g, v), lambda g: mul(g, a))
    else:
        vjps = (lambda g: outer(g, v), lambda g: dot(transpose(a), g))
    return Tensor(a.data @ v.data, (a, v), vjps)


def outer(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(np.outer(a.data, b.data), (a, b), (lambda g: dot(g, b), lambda g: dot(transpose(g), a)))


def take(theta: Tensor, start: int, shape) -> Tensor:
    """theta[start : start + size] as an array of `shape`.

    Its vjp scatters the adjoint into -0.0s, the additive identity, so the
    sum of a flat theta's scattered adjoints keeps every signed zero.
    """
    stop = start + int(np.prod(shape))

    def scatter(g: Tensor) -> Tensor:
        flat = np.full(theta.shape, -0.0)
        flat[start:stop] = g.data.ravel()
        return Tensor(flat, (g,), (lambda gg: take(gg, start, shape),))

    return Tensor(theta.data[start:stop].reshape(shape), (theta,), (scatter,))


# ---------------------------------------------------------------------------
# the objectives
# ---------------------------------------------------------------------------


def decision_graph(params: Sequence[Tensor], X: Tensor) -> Tensor:
    """A network's logits: rectifier hidden layers, a linear output layer."""
    h = X
    n_layers = len(params) // 2
    for i in range(n_layers):
        W, b = params[2 * i], params[2 * i + 1]
        h = ad.add(matmul(h, W), b)
        if i < n_layers - 1:
            h = relu(h)
    return h


def true_class_log_probs(model, params: Sequence[Tensor], X: Tensor, classes: np.ndarray) -> Tensor:
    """Log-softmax of the logits, kept at each row's true class (model.targets) and zero elsewhere."""
    logits = decision_graph(params, X)
    onehot = np.zeros((classes.size, model.num_classes))
    onehot[np.arange(classes.size), classes] = 1.0
    z = ad.add(logits, constant(-logits.data.max(axis=1, keepdims=True)))  # stabilizer, constant on the tape
    lse = tlog(ad.tsum(texp(z), axis=1, keepdims=True))
    log_probs = ad.add(z, neg(lse))
    return mul(log_probs, constant(onehot))


def split(model, theta: Tensor) -> list[Tensor]:
    """The flat theta cut into one `take` node per array of model.params()."""
    out, start = [], 0
    for p in model.params():
        out.append(take(theta, start, p.shape))
        start += p.size
    return out


def tape_margins(X: Tensor, w: Tensor, y) -> Tensor:
    """The hinge margins y * (X @ w) as two tape nodes; `y` is one label or one per row."""
    return mul(constant(np.asarray(y, dtype=np.float64)), dot(X, w))


def tape_loss_graph(model, params, X: Tensor, y: np.ndarray, lam: float) -> Tensor:
    """batch_loss_graph's objective built from tape primitives, one node per operation.

    `params` is [theta], theta the flat parameters. The linear objective
    mean(max(0, 1 - y * X@w)) + lam * ||w||^2 is 15 small nodes, w being
    theta itself. The network objective is the mean negative true-class
    log-softmax plus lam times the squared weights, over one `take` node per
    parameter.
    """
    (theta,) = params
    if isinstance(model, LinearClassifier):
        hinge = mean(relu(ad.add(constant(1.0), neg(tape_margins(X, theta, y)))))
        return ad.add(hinge, mul(constant(lam), ad.tsum(mul(theta, theta))))
    data_term = neg(mean(ad.tsum(true_class_log_probs(model, split(model, theta), X, y), axis=1)))
    if lam > 0:  # decay weights, not biases
        # each factor is its own `take` node, so every weight adjoint is (h.T@g + lam*W) + lam*W and the
        # second pass meets the parameters in the order it met per-parameter leaves
        factors = zip(split(model, theta)[0::2], split(model, theta)[0::2])
        reg = reduce(ad.add, [ad.tsum(mul(W, W2)) for W, W2 in factors])
        data_term = ad.add(data_term, mul(constant(lam), reg))
    return data_term


def tape_parts(model, theta: np.ndarray, X: np.ndarray, y: np.ndarray, lam: float) -> tuple[float, np.ndarray, Callable]:
    """batch_loss_graph's (loss, grad, meta_of) on the tape: tape_loss_graph at leaves holding `theta` and X,
    G = grad by `backward`, and meta_of(v) the vjp backward(G, [X], v).

    `backward` is looked up on the autodiff module at each call, so a test
    may patch it there. Patch this over `robustdata.learning.batch_loss_graph`
    to run the learner on the tape.
    """
    leaf, X_leaf = Tensor(theta), Tensor(X)
    out = tape_loss_graph(model, [leaf], X_leaf, y, lam)
    (G,) = ad.backward(out, [leaf])
    return out.item(), G.data, lambda v: ad.backward(G, [X_leaf], v)[0].data


class FiniteDiffReport:
    """Outcome of a central-difference check of `grad` at one point."""

    def __init__(self, max_rel_error: float, rel_errors: np.ndarray, non_comparable: np.ndarray):
        self.max_rel_error = max_rel_error
        self.rel_errors = rel_errors
        self.non_comparable = non_comparable

    @property
    def n_non_comparable(self) -> int:
        return int(self.non_comparable.sum())

    def __repr__(self):
        return (
            f"FiniteDiffReport(max_rel_error={self.max_rel_error:.3e},"
            f" non_comparable={self.n_non_comparable})"
        )


def finite_diff_check(objective: Callable[[Tensor], Tensor], point: Tensor, step: float,
                      analytic: np.ndarray | None = None) -> FiniteDiffReport:
    """Compare grad(objective), or a given `analytic` gradient, against central finite differences at `point`.

    Relative error uses denominator max(|analytic|, |numeric|, 1e-8).
    Coordinates where forward and backward one-sided differences disagree
    (a kink under the stencil) are flagged non-comparable and excluded
    from the reported maximum.
    """
    if step <= 0:
        raise ParameterError(f"step must be positive, got {step}")
    if analytic is None:
        analytic = grad(objective, [point])[0].data

    flat = point.data.reshape(-1)
    numeric = np.zeros_like(flat)
    non_comparable = np.zeros(flat.shape, dtype=bool)
    f0 = float(objective(Tensor(point.data)).data)
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = step
        shaped = e.reshape(point.shape)
        fp = float(objective(Tensor(point.data + shaped)).data)
        fm = float(objective(Tensor(point.data - shaped)).data)
        numeric[i] = (fp - fm) / (2 * step)
        fwd = (fp - f0) / step
        bwd = (f0 - fm) / step
        scale = max(abs(fwd), abs(bwd), 1.0)
        if abs(fwd - bwd) > 0.1 * scale:
            non_comparable[i] = True

    numeric = numeric.reshape(point.shape)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    mask = non_comparable.reshape(point.shape)
    comparable = rel[~mask]
    max_err = float(comparable.max()) if comparable.size else 0.0
    return FiniteDiffReport(max_err, rel, mask)


def monte_carlo_accuracies(
    w: np.ndarray,
    spec: DistributionSpec,
    eps: float,
    n: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Independent oracle for theory.closed_form_accuracies: simulate the model directly.

    Draws full (d+1)-dimensional samples in chunks of 200,000 rows,
    applies the closed-form worst-case perturbation to each, and counts
    sign agreements for both the clean and perturbed points.
    """
    w = np.asarray(w, dtype=np.float64)
    nat_hits = rob_hits = 0
    done = 0
    while done < n:
        m = min(200_000, n - done)
        ds = sample(spec, m, rng)
        y = ds.labels.astype(np.float64)
        margins = y * (ds.features @ w)
        nat_hits += int(np.sum(margins > 0))
        # per-row worst case: subtract eps * ||w||_1 from the signed margin
        rob_hits += int(np.sum(margins - eps * np.abs(w).sum() > 0))
        done += m
    return nat_hits / n, rob_hits / n
