"""Classifiers, losses, and natural training.

Two model families: a linear classifier without bias (predicts sign(w.x),
hinge-trained) and a small fully-connected network with rectifier hidden
layers (cross-entropy). Both expose the same small surface:

  * params() / set_params()      parameter arrays in layer order
  * targets(labels)              labels in the form the loss expects; a binary
                                 network takes {-1,+1} or {0,1} labels alike
  * predict(X)                   labels in that target space, plain numpy

The model's type picks its loss in batch_loss_graph. Only the network
builds its logits on the tape (decision_graph); the linear objective is
one fused tape node whose value and vjps come from hinge_parts.

Training is mini-batch SGD with classical momentum. The ridge term
enters the objective itself, so its gradient is exactly 2*lambda*w.
Linear training builds no tape: one loop steps S models in lock-step, one
stacked hinge_parts call per batch, and a single model is its S=1 case.
hinge_parts and mlp_input_grad (a network attack's input gradient) are
numpy closed forms, bit-identical to their objectives written in tape
primitives plus backward. The tape serves the network's training steps
and the learner's second-order step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataset import Dataset
from .errors import DataError, NonFiniteError, ParameterError
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

    def decision_graph(self, params: Sequence[Tensor], X: Tensor) -> Tensor:
        h = X
        n_layers = len(params) // 2
        for i in range(n_layers):
            W, b = params[2 * i], params[2 * i + 1]
            h = ad.add(ad.matmul(h, W), b)
            if i < n_layers - 1:
                h = ad.relu(h)
        return h

    def logits(self, X: np.ndarray) -> np.ndarray:
        h = X
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ W + b
            if i < len(self.weights) - 1:
                h = np.maximum(h, 0.0)
        return h

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(X), axis=1)

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


def true_class_log_probs(model: MlpClassifier, params: Sequence[Tensor], X: Tensor, classes: np.ndarray) -> Tensor:
    """Log-softmax of the logits, kept at each row's true class (model.targets) and zero elsewhere."""
    logits = model.decision_graph(params, X)
    onehot = np.zeros((classes.size, model.num_classes))
    onehot[np.arange(classes.size), classes] = 1.0
    z = ad.add(logits, ad.constant(-logits.data.max(axis=1, keepdims=True)))  # stabilizer, constant on the tape
    lse = ad.tlog(ad.tsum(ad.texp(z), axis=1, keepdims=True))
    log_probs = ad.add(z, ad.neg(lse))
    return ad.mul(log_probs, ad.constant(onehot))


def batch_loss_graph(model, params: Sequence[Tensor], X: Tensor, y: np.ndarray, lam: float) -> Tensor:
    """The model's training objective on the tape; `y` is model.targets(labels).

    The linear classifier's is mean(max(0, 1 - y * w.x)) + lam * ||w||^2 as
    one node over (X, w) from hinge_parts. Its w vjp is g * grad, a node over
    (X, w) whose X vjp outer(c, gg) is the meta-gradient and whose w vjp,
    gg*lam twice, is the ridge Hessian. The network's is the mean negative
    log-softmax of the true class plus lam times the squared weights
    (biases are not decayed).
    """
    if isinstance(model, LinearClassifier):
        (w,) = params
        loss, c, grad = hinge_parts(X.data, y.astype(np.float64), w.data, lam)
        hessian = lambda gg: ad.add(ad.mul(gg, ad.constant(lam)), ad.mul(gg, ad.constant(lam)))
        G = Tensor(grad, (X, w), (lambda gg: ad.constant(np.outer(c, gg.data)), hessian))
        return Tensor(loss, (X, w), (lambda g: ad.mul(g, ad.constant(np.outer(c, w.data))), lambda g: ad.mul(g, G)))
    data_term = ad.neg(ad.mean(ad.tsum(true_class_log_probs(model, params, X, y), axis=1)))
    if lam > 0:
        reg = reduce(ad.add, [ad.tsum(ad.mul(W, W)) for W in params[0::2]])  # decay weights, not biases
        data_term = ad.add(data_term, ad.mul(ad.constant(lam), reg))
    return data_term


def hinge_parts(X: np.ndarray, y: np.ndarray, w: np.ndarray, lam: float):
    """The linear objective (loss, c, grad) in numpy: grad = (X.T@c + lam*w) + lam*w.

    `y` holds the labels as float64; c = -((1/B)*a)*y, `a` the hinge-active
    mask. Every operation is the hinge's in tape primitives, in the tape's
    order, so all three are bit-identical to that graph plus backward; the
    ridge gradient is lam*w added twice, as the tape adds it, not 2*lam*w.
    A leading seed axis is allowed: X (S,B,d), y (S,B) and w (S,d) give
    each seed's loss (S,), c and grad, byte for byte its 2-D call's, since
    numpy's stacked products and row sums run the per-seed kernels.

    NonFiniteError is raised where that graph plus backward raises it. The tape
    checks its leaves, so X and w are checked first; every later value
    reaches the loss or the gradient, which are checked last. A non-finite
    margin makes slack*a inf or NaN (inf*0 is NaN) and so the loss, an
    overflowing w*w makes the ridge term and the loss inf or NaN, and the
    partial sums of the gradient carry any inf or NaN into it. The tape
    values formed from c later, outer(c, w) and outer(c, gg), are finite
    whenever w and gg are, since |c| <= 1/B. numpy's floating-point
    warnings are silenced: NonFiniteError is the only report.
    """
    if not (np.isfinite(X).all() and np.isfinite(w).all()):
        raise NonFiniteError("tensor contains NaN or Inf")
    with np.errstate(all="ignore"):
        slack = 1.0 - y * (X @ w[..., None])[..., 0]
        a = (slack > 0).astype(np.float64)  # relu'(0) = 0, as on the tape
        inv_b = 1.0 / y.shape[-1]
        loss = (slack * a).sum(-1) * inv_b + lam * (w * w).sum(-1)
        c = -(inv_b * a) * y
        grad = ((X.swapaxes(-1, -2) @ c[..., None])[..., 0] + lam * w) + lam * w
    if not (np.isfinite(loss).all() and np.isfinite(grad).all()):
        raise NonFiniteError("tensor contains NaN or Inf")
    return loss, c, grad


def mlp_input_grad(params: Sequence[np.ndarray], X: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """d/dX of -sum(true-class log-softmax) of a network, without a tape.

    `params` is model.params() and `classes` is model.targets(labels). Every
    operation is the tape's, in the tape's order, so the result is
    bit-identical to true_class_log_probs plus backward; no weight or bias
    adjoint is formed.

    NonFiniteError is raised where the tape raises it; the tape's backward
    forms no weight or bias adjoint either. The leaves are checked first, as
    on the tape. Any other non-finite value spreads along its row to the
    objective (an overflowing logits - max, or a sum of huge
    log-probabilities) or to the gradient, and those two are checked last.
    numpy's floating-point warnings are silenced: NonFiniteError is the only
    report.
    """
    X = np.asarray(X, dtype=np.float64)
    if not (np.isfinite(X).all() and all(np.isfinite(p).all() for p in params)):
        raise NonFiniteError("tensor contains NaN or Inf")
    weights, biases = params[0::2], params[1::2]
    with np.errstate(all="ignore"):
        h, masks = X, []
        for W, b in zip(weights[:-1], biases[:-1]):
            s = h @ W + b
            masks.append((s > 0).astype(np.float64))  # relu'(0) = 0, as on the tape
            h = s * masks[-1]
        logits = h @ weights[-1] + biases[-1]
        z = logits + (-logits.max(axis=1, keepdims=True))
        e = np.exp(z)
        S = np.sum(e, axis=1, keepdims=True)
        onehot = np.zeros_like(z)
        onehot[np.arange(classes.size), classes] = 1.0
        objective = np.sum((z + (-np.log(S))) * onehot)
        g_lp = -onehot  # the seed -1 times the one-hot mask, signed zeros included
        g = g_lp + ((-np.sum(g_lp, axis=(1,), keepdims=True)) * S**-1.0) * e
        for W, m in zip(weights[:0:-1], masks[::-1]):
            g = (g @ W.T) * m
        g = g @ weights[0].T
    if not (np.isfinite(objective) and np.isfinite(g).all()):
        raise NonFiniteError("tensor contains NaN or Inf")
    return g


# ---------------------------------------------------------------------------
# training and evaluation
# ---------------------------------------------------------------------------


def sgd_train(model, dataset: Dataset, cfg: TrainConfig, perturb: Callable | None = None):
    """Train in place by mini-batch SGD with momentum; returns (model, per-epoch loss trace).

    With a hook, every batch is replaced by perturb(X, y) before its step;
    the model holds the current parameters when the hook is called. A
    linear step is hinge_parts; a network step is batch_loss_graph
    and backward on the tape. numpy's floating-point warnings are silenced
    here: a diverging run reports itself by NonFiniteError alone.

    Given lists of models and of their configs, alike but for `seed`, it
    returns a list of (model, trace), each byte for byte the model's alone.
    Linear models train in lock-step: each seed draws its own batch order,
    and a batch is one stacked gather, hinge_parts call and momentum update
    for all; one linear model is the one-seed case. Networks train alone.
    """
    if isinstance(model, list):
        if not model or len(model) != len(cfg) or perturb is not None \
                or any(replace(c, seed=0) != replace(cfg[0], seed=0) for c in cfg):
            raise ParameterError("lock-step training takes one config per model, alike but for seed, and no hook")
        if not all(isinstance(m, LinearClassifier) for m in model):
            return [sgd_train(m, dataset, c) for m, c in zip(model, cfg)]
        models, cfgs = model, cfg
    else:
        models, cfgs = [model], [cfg]
    if dataset.n == 0:
        raise DataError("cannot train on an empty dataset")
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
                X, y = dataset.features[idx], y_all[idx]
                if perturb is not None:  # one model: the hook sees its 2-D batch
                    models[0].set_params([p[0] for p in params])
                    X = perturb(X[0], y[0])[None]
                if linear:
                    losses[:, b], _, *grads = hinge_parts(X, y_float[idx], params[0], cfg.weight_decay)
                else:  # one network
                    leaves = [Tensor(p[0]) for p in params]
                    out = batch_loss_graph(models[0], leaves, Tensor(X[0]), y[0], cfg.weight_decay)
                    grads = [g.data[None] for g in ad.backward(out, leaves)]
                    losses[0, b] = out.item()
                for v, g in zip(velocity, grads):
                    v *= cfg.momentum
                    v += g
                # out of place: the step read the old arrays (w, or the tape leaves wrapping them)
                params = [p - cfg.lr * v for p, v in zip(params, velocity)]
            traces.append(losses.mean(axis=1))

    # every earlier update was checked by the step that read it; the last is read by no step
    if not all(np.isfinite(p).all() for p in params):
        raise NonFiniteError("the last SGD update left non-finite parameters")
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
