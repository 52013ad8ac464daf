"""Classifiers, losses, and natural training.

Two model families: a linear classifier without bias (predicts sign(w.x),
hinge-trained) and a small fully-connected network with rectifier hidden
layers (cross-entropy). Both expose the same small surface:

  * params() / set_params()      parameter arrays in layer order
  * targets(labels)              labels in the form the loss expects; a binary
                                 network takes {-1,+1} or {0,1} labels alike
  * predict(X)                   labels in that target space, plain numpy

The model's type picks its loss in batch_loss_graph: one fused tape node
over (X, theta), theta the parameters as one flat vector, whose value and
vjps come from hinge_parts or mlp_parts.

Training is mini-batch SGD with classical momentum. The ridge term
enters the objective itself, so its gradient is exactly 2*lambda*w.
Training builds no tape: one loop steps S models of one architecture in
lock-step, one stacked hinge_parts or mlp_parts call per batch, and a
single model is its S=1 case. hinge_parts, mlp_parts and
mlp_input_gradient (a network attack's input gradient, prepared once per
attack) are numpy closed forms, bit-identical to their objectives written
in tape primitives plus backward (the tests' reference). The tape serves
only the learner's steps 1 and 3. Prediction, training, the learner and the
attack share one network pass, forward, and one log-softmax, log_softmax_head.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataset import Dataset
from .errors import ContractError, DataError, ParameterError, check_finite
from .rng import RngStream


class LinearClassifier:
    """sign(w.x) on d+1 features; no bias term."""

    def __init__(self, w: np.ndarray):
        self.w = np.asarray(w, dtype=np.float64)
        if self.w.ndim != 1:
            raise ParameterError(f"weight vector must be 1-D, got shape {self.w.shape}")
        if not np.all(np.isfinite(self.w)):
            raise ParameterError("weights must be finite")

    @classmethod
    def zeros(cls, width: int) -> "LinearClassifier":
        return cls(np.zeros(width))

    def params(self) -> list[np.ndarray]:
        return [self.w]

    def set_params(self, params: Sequence[np.ndarray]) -> None:
        (w,) = params
        self.w = np.asarray(w, dtype=np.float64)

    def margins(self, X: np.ndarray) -> np.ndarray:
        return X @ self.w

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.sign(self.margins(X)).astype(np.int64)

    def targets(self, labels: np.ndarray) -> np.ndarray:
        if np.any(np.abs(labels) != 1):
            bad = np.setdiff1d(np.unique(labels), [-1, 1])
            raise DataError(f"linear classifier expects labels in {{-1,+1}}, got {bad.tolist()}")
        return labels


class MlpClassifier:
    """Fully-connected net, rectifier hidden layers, linear output layer."""

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        if len(weights) != len(biases) or not weights:
            raise ParameterError("need matching, nonempty weight/bias lists")
        for i in range(len(weights) - 1):
            if weights[i].shape[1] != weights[i + 1].shape[0]:
                raise ParameterError(
                    f"layer {i} output width {weights[i].shape[1]} does not feed layer {i + 1}"
                )
        for W, b in zip(weights, biases):
            if b.shape != (W.shape[1],):
                raise ParameterError("bias width must match layer output width")
        self.weights = [np.asarray(W, dtype=np.float64) for W in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]

    @classmethod
    def init(cls, sizes: Sequence[int], rng: RngStream) -> "MlpClassifier":
        """He-style initialization for the given [in, hidden..., out] sizes."""
        if len(sizes) < 2:
            raise ParameterError("need at least input and output sizes")
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            std = np.sqrt(2.0 / fan_in)
            weights.append(rng.normal(0.0, std, (fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[1]

    def params(self) -> list[np.ndarray]:
        out = []
        for W, b in zip(self.weights, self.biases):
            out.extend([W, b])
        return out

    def set_params(self, params: Sequence[np.ndarray]) -> None:
        params = list(params)
        self.weights = [np.asarray(params[2 * i], dtype=np.float64) for i in range(len(self.weights))]
        self.biases = [np.asarray(params[2 * i + 1], dtype=np.float64) for i in range(len(self.biases))]

    def logits(self, X: np.ndarray) -> np.ndarray:
        return forward(X, self.weights, self.biases)[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):  # NonFiniteError is the only report
            logits = self.logits(X)
        check_finite(logits, message="the network's logits contain NaN or Inf")
        return np.argmax(logits, axis=1)

    def targets(self, labels: np.ndarray) -> np.ndarray:
        return class_indices(labels, self.num_classes)


def class_indices(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Map labels to [0, num_classes); binary {-1,+1} maps to {0,1}."""
    labels = np.asarray(labels)
    if num_classes == 2 and not np.any(np.abs(labels) != 1):
        return ((labels + 1) // 2).astype(np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DataError(f"labels {np.unique(labels).tolist()} outside [0, {num_classes})")
    return labels.astype(np.int64)


@dataclass
class TrainConfig:
    """Mini-batch SGD settings; weight_decay is the ridge coefficient lambda."""

    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-3
    epochs: int = 10
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        # comparisons against inf, since `x <= 0` is False for NaN
        if not 0 < self.lr < np.inf:
            raise ParameterError(f"lr must be positive and finite, got {self.lr}")
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < np.inf:
            raise ParameterError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def flatten(params: Sequence[np.ndarray]) -> np.ndarray:
    """Parameter arrays as one flat vector, in params() order."""
    return np.concatenate([p.ravel() for p in params])


def unflatten(model, theta: np.ndarray) -> list[np.ndarray]:
    """flatten's inverse: views of `theta` shaped like model.params()."""
    end = 0  # each slice's start is evaluated, moving `end` to the slice's end, before its stop
    return [theta[(end := end + p.size) - p.size : end].reshape(p.shape) for p in model.params()]


def _unformed(g):
    raise ContractError("the fused objective forms no such derivative (see batch_loss_graph)")


def batch_loss_graph(model, params: Sequence[Tensor], X: Tensor, y: np.ndarray, lam: float) -> Tensor:
    """The model's training objective as one tape node over (X, theta); `y` is model.targets(labels).

    `params` is [theta], the parameters as one flat vector (flatten). The
    objective is hinge_parts' mean hinge plus lam * ||w||^2, or mlp_parts'
    mean negative true-class log-softmax plus lam times the squared weights
    (biases are not decayed). Its X vjp is g times the data gradient,
    outer(c, w) or g_1 @ W_1.T; its theta vjp is g * G, G the parameter
    gradient as a node whose X vjp is the meta-gradient's closed form
    d/dX <G, gg>: outer(c, gg), or mlp_parts' Hessian-vector product. Any
    other derivative, G's theta vjp or one of those results', raises
    ContractError: the node does not form it.
    """
    (theta,) = params
    if isinstance(model, LinearClassifier):
        loss, c, grad = hinge_parts(X.data, y.astype(np.float64), theta.data, lam)
        data_grad, meta = (lambda: np.outer(c, theta.data)), (lambda v: np.outer(c, v))
    else:
        loss, adjoints, (data_grad, hvp) = mlp_parts(unflatten(model, theta.data), X.data, y, lam)
        grad, meta = flatten(adjoints), (lambda v: hvp(unflatten(model, v)))
    G = Tensor(grad, (X, theta), (lambda gg: Tensor(meta(gg.data), (X, theta, gg), (_unformed,) * 3), _unformed))
    data_vjp = lambda g: ad.mul(g, Tensor(data_grad(), (X, theta), (_unformed,) * 2))
    return Tensor(loss, (X, theta), (data_vjp, lambda g: ad.mul(g, G)))


def hinge_parts(X: np.ndarray, y: np.ndarray, w: np.ndarray, lam: float):
    """The linear objective (loss, c, grad) in numpy: grad = (X.T@c + lam*w) + lam*w.

    `y` holds the labels as float64; c = -((1/B)*a)*y, `a` the hinge-active
    mask. Every operation is the hinge's in tape primitives, in the tape's
    order, so all three are bit-identical to that graph plus backward; the
    ridge gradient is lam*w added twice, as the tape adds it, not 2*lam*w.
    A leading seed axis is allowed: X (S,B,d), y (S,B) and w (S,d) give
    each seed's loss (S,), c and grad, byte for byte its 2-D call's, since
    numpy's stacked products and row sums run the per-seed kernels.

    NonFiniteError is raised where that graph plus backward raises it, by
    checking the loss and gradient last. X is checked where it is made (a
    Dataset, sgd_train's features and hook batches, the learner's tape
    leaves), and a NaN or Inf in w makes lam * (w*w).sum() and so its loss
    non-finite (0*inf is NaN). A non-finite margin makes slack*a inf or NaN
    and so the loss, an overflowing w*w the ridge term, and the gradient's
    partial sums carry any inf or NaN into it; outer(c, w) and outer(c, gg) are
    finite whenever w and gg are, as |c| <= 1/B. numpy's warnings are silenced.
    """
    with np.errstate(all="ignore"):
        slack = 1.0 - y * (X @ w[..., None])[..., 0]
        a = (slack > 0).astype(np.float64)  # relu'(0) = 0, as on the tape
        inv_b = 1.0 / y.shape[-1]
        loss = (slack * a).sum(-1) * inv_b + lam * (w * w).sum(-1)
        c = -(inv_b * a) * y
        grad = ((X.swapaxes(-1, -2) @ c[..., None])[..., 0] + (ridge := lam * w)) + ridge
    check_finite(loss, grad)
    return loss, c, grad


def forward(X: np.ndarray, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray], outputs=None, masks=None):
    """A network's (logits, layer inputs, relu masks): per layer h @ W, += b, and if hidden h *= (h > 0).

    That is the tape's relu: relu'(0) = 0, and a negative pre-activation gives -0.0. Products and
    bool masks are fresh, or written into prepared `outputs` (per layer) and float `masks` (per hidden layer).
    """
    h, inputs, made = X, [], []
    for i, (W, b) in enumerate(zip(weights, biases)):
        inputs.append(h)
        h = np.matmul(h, W, out=None if outputs is None else outputs[i])
        h += b
        if i < len(weights) - 1:
            made.append(np.greater(h, 0.0, out=None if masks is None else masks[i]))
            h *= made[-1]
    return h, inputs, made


def log_softmax_head(h: np.ndarray):
    """The stabilised log-softmax's parts (z, e, total) of logits h: z = h - max(h), e = exp(z), total = sum(e)."""
    z = h + (-h.max(axis=-1, keepdims=True))
    e = np.exp(z)
    return z, e, np.sum(e, axis=-1, keepdims=True)


def mlp_parts(params: Sequence[np.ndarray], X: np.ndarray, classes: np.ndarray, lam: float):
    """A network's training objective and its adjoints in numpy: (loss, adjoints, (data_grad, hvp)).

    `params` is model.params() and `classes` model.targets(labels). The loss is
    batch_loss_graph's objective, through forward and log_softmax_head; the
    adjoints are every weight and bias adjoint in params order, a weight's
    ridge added as r = lam*W; g_W += r; g_W += r, the tape's (h.T@g + lam*W) +
    lam*W. The 2-D closures read the pass's arrays: data_grad() is the loss's X
    adjoint and hvp(v) the mixed second derivative d/dX <adjoints, v>, which
    accumulates in place into arrays it made. Each operation is the tape's, in
    its order and grouping, so all of it is bit-identical to the objective in
    tape primitives plus backward. As in hinge_parts, a leading seed axis gives
    each seed's loss and adjoints, byte for byte its 2-D call's.

    NonFiniteError is raised where the tape raises it: the leaves are checked
    first, and any later non-finite value spreads along its row to the loss
    or into the next adjoint (each bias adjoint sums its layer's g), which
    are checked last. numpy's floating-point warnings are silenced.
    """
    check_finite(X, *params)
    weights, biases = params[0::2], [b[..., None, :] for b in params[1::2]]  # a bias broadcasts over rows
    last = len(weights) - 1
    with np.errstate(all="ignore"):
        h, inputs, masks = forward(X, weights, biases)
        z, e, total = log_softmax_head(h)
        onehot = (np.asarray(classes)[..., None] == np.arange(z.shape[-1])).astype(np.float64)
        picked = (z + (-np.log(total))) * onehot
        loss = -(picked.sum(-1).sum(-1) * (1 / z.shape[-2]))
        if lam > 0:  # weights are decayed, biases not
            loss = loss + lam * reduce(np.add, [(W * W).sum((-2, -1)) for W in weights])
        g_lp = (-1.0 * (1 / z.shape[-2])) * onehot  # signed zeros included
        K = -np.sum(g_lp, axis=(-1,), keepdims=True)
        s = K * total**-1.0
        g = g_lp + s * e
        adjoints, signals = [], []  # signals[i]: the adjoint of layer i's pre-activation
        for i in range(last, -1, -1):
            signals[:0] = [g]
            g_W = inputs[i].swapaxes(-1, -2) @ g
            if lam > 0:
                r = lam * weights[i]
                g_W += r
                g_W += r
            adjoints[:0] = [g_W, np.sum(g, axis=(-2,))]
            if i:
                g = g @ weights[i].swapaxes(-1, -2)
                g *= masks[i - 1]
    check_finite(loss, *adjoints)

    def data_grad():
        with np.errstate(all="ignore"):
            return signals[0] @ weights[0].T

    def hvp(v):
        vW, vb = v[0::2], v[1::2]
        with np.errstate(all="ignore"):  # the tape's grouping: each in-place step closes one ( )
            t = X @ vW[0]
            t += vb[0]
            for i in range(1, last + 1):
                t *= masks[i - 1]
                t = t @ weights[i]
                t += inputs[i] @ vW[i]
                t += vb[i]
            r = np.sum(t * e, axis=-1, keepdims=True) * K
            t *= s
            t += r * (-1.0 * total**-2.0)
            t *= e
            for i in range(last, -1, -1):
                t = t @ weights[i].T
                t += (vW[i] @ signals[i].T).T
                if i:
                    t *= masks[i - 1]
        return t

    return loss, adjoints, (data_grad, hvp)


def mlp_input_gradient(params: Sequence[np.ndarray], classes: np.ndarray, rows: int) -> Callable:
    """A network's attack gradient, prepared once for all iterates of one attack: gradient(X) -> d/dX.

    The objective is -sum(true-class log-softmax) over `rows` rows; `params` is
    model.params() and `classes` model.targets(labels). Made once: the
    parameters' finiteness check, the one-hot targets, the softmax constants
    g_lp and K, and the scratch arrays, per layer one for its output (which
    its adjoint overwrites on the way down) and per hidden layer one for its
    relu mask. gradient(X) runs forward into them and log_softmax_head, then
    backward by np.matmul(..., out=) and in-place ufuncs, each the tape's
    operation on the same operands in the same order, so it is bit-identical to
    the objective in tape primitives plus backward. It forms no weight or bias
    adjoint and returns a fresh array.

    NonFiniteError is raised where the tape raises it: the leaves are checked
    first (the parameters here, X at each call), and any later non-finite
    value spreads along its row to the loss or to the input adjoint, which
    are checked last. numpy's floating-point warnings are silenced.
    """
    check_finite(*params)
    weights, biases = params[0::2], params[1::2]
    outputs = [np.empty((rows, W.shape[1])) for W in weights]
    masks = [np.empty_like(h) for h in outputs[:-1]]
    onehot = (np.asarray(classes)[..., None] == np.arange(weights[-1].shape[1])).astype(np.float64)
    g_lp = -1.0 * onehot  # signed zeros included
    K = -np.sum(g_lp, axis=(-1,), keepdims=True)

    def gradient(X: np.ndarray) -> np.ndarray:
        check_finite(X)
        with np.errstate(all="ignore"):
            z, e, total = log_softmax_head(forward(X, weights, biases, outputs, masks)[0])
            loss = -((z + (-np.log(total))) * onehot).sum((-2, -1))  # only checked
            g = g_lp + (K * total**-1.0) * e
            for i in range(len(weights) - 1, 0, -1):
                g = np.matmul(g, weights[i].T, out=outputs[i - 1])  # layer i-1's output is read no more
                g *= masks[i - 1]
            g = g @ weights[0].T
        check_finite(loss, g)
        return g

    return gradient


# ---------------------------------------------------------------------------
# training and evaluation
# ---------------------------------------------------------------------------


def same_architecture(models: list) -> bool:
    """Whether `models` is a non-empty list of one family whose parameters have one set of shapes."""
    return bool(models) and len({(type(m), *(p.shape for p in m.params())) for m in models}) == 1


def sgd_train(model, dataset: Dataset, cfg: TrainConfig, perturb: Callable | None = None):
    """Train in place by mini-batch SGD with momentum; returns (model, per-epoch loss trace).

    With a hook, every batch is replaced by perturb(X, y), checked finite,
    before its step; the model holds the current parameters when the hook
    is called. A step is hinge_parts or mlp_parts, a numpy closed form that
    builds no tape; the features are checked finite once per call. numpy's
    warnings are silenced: a diverging run reports itself by NonFiniteError.

    Given lists of models of one architecture and of their configs, alike
    but for `seed`, it trains them in lock-step and returns a list of
    (model, trace), each byte for byte the model's alone: each seed draws
    its own batch order, and a batch is one stacked gather, closed-form
    call and momentum update for all. One model is the one-seed case.
    """
    if isinstance(model, list) or isinstance(cfg, list):
        if not (isinstance(model, list) and isinstance(cfg, list)) or len(model) != len(cfg) \
                or perturb is not None or not same_architecture(model) \
                or any(replace(c, seed=0) != replace(cfg[0], seed=0) for c in cfg):
            raise ParameterError("lock-step training takes models of one architecture, one config per model, "
                                 "alike but for seed, and no hook")
        models, cfgs = model, cfg
    else:
        models, cfgs = [model], [cfg]
    if dataset.n == 0:
        raise DataError("cannot train on an empty dataset")
    check_finite(dataset.features, message="training features contain NaN or Inf")  # a Dataset may be rewritten
    cfg, linear = cfgs[0], isinstance(models[0], LinearClassifier)
    y_all = models[0].targets(dataset.labels)
    y_float = y_all.astype(np.float64)

    params = [np.stack(p) for p in zip(*(m.params() for m in models))]  # a leading seed axis
    velocity = [np.zeros_like(p) for p in params]
    shuffles = [RngStream(c.seed) for c in cfgs]
    starts = range(0, dataset.n, cfg.batch_size)
    losses = np.empty((len(models), len(starts)))
    traces = []

    with np.errstate(all="ignore"):
        for _ in range(cfg.epochs):
            orders = np.stack([shuffle.permutation(dataset.n) for shuffle in shuffles])
            for b, start in enumerate(starts):
                idx = orders[:, start : start + cfg.batch_size]
                X = dataset.features[idx]
                if perturb is not None:  # one model: the hook sees its 2-D batch
                    models[0].set_params([p[0] for p in params])
                    X = perturb(X[0], y_all[idx[0]])[None]
                    check_finite(X, message="the perturbed batch contains NaN or Inf")
                if linear:
                    losses[:, b], _, *grads = hinge_parts(X, y_float[idx], params[0], cfg.weight_decay)
                else:
                    losses[:, b], grads, _ = mlp_parts(params, X, y_all[idx], cfg.weight_decay)
                for v, g in zip(velocity, grads):
                    v *= cfg.momentum
                    v += g
                # out of place: the step read the old arrays
                params = [p - cfg.lr * v for p, v in zip(params, velocity)]
            traces.append(losses.mean(axis=1))

    # every earlier update was checked by the step that read it; the last is read by no step
    check_finite(*params, message="the last SGD update left non-finite parameters")
    for s, m in enumerate(models):
        m.set_params([p[s] for p in params])
    trained = [(m, trace.tolist()) for m, trace in zip(models, np.array(traces).T)]
    return trained if isinstance(model, list) else trained[0]


def accuracy(model, dataset: Dataset) -> float:
    """Fraction of points whose prediction matches the label, both in the model's target space."""
    if dataset.n == 0:
        raise DataError("accuracy of an empty dataset is undefined")
    pred = model.predict(dataset.features)
    return float(np.mean(pred == model.targets(dataset.labels)))
