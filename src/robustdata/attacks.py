"""Projected gradient descent adversaries and robust-accuracy evaluation.

The PGD update follows the sign-of-gradient rule under l-infinity and a
normalized-gradient step under l2, with projection back to the threat
ball after every step and a final clamp to the value range when one is
configured. Attacks start at the natural point and draw no randomness,
so an attack's output depends only on the model, the rows and the config.

Attack gradients for hinge-trained models use the raw margin 1 - y*f(x)
rather than its clamped value: the clamp has zero gradient wherever the
model is confident, which would silently mask the attack. On a linear
model the margin direction reproduces the closed-form worst case
delta = -eps * sign(y*w) exactly, so the attained hinge loss equals
max(0, 1 - y*w.x + eps*||w||_1) from any starting point. That input
gradient is -y*w for every row, so it is gathered from the rows -w and +w
without a tape (after checking X and w are finite, as tape leaves would),
and pgd_attack computes a linear model's step once per attack. Under l-inf
the attack is then K in-place adds projected once, bit-identical to
projecting every step: x_nat +- alpha lies in the ball for alpha <= eps, and
P(P(y) + s) == P(y + s) for a step of one sign (_linear_linf_pgd). Every
attack checks the iterate it returns, and a non-finite iterate stays
non-finite, so overflow at any step raises NonFiniteError. A network's input
gradient of -sum(true-class log-softmax) comes from models.mlp_input_gradient,
a numpy backward that forms no weight or bias adjoint, so no attack builds a
tape. pgd_attack prepares it once per attack (the parameter check, the
one-hot targets, one scratch array per layer), and every step passes it to
attack_gradient. The tape forms of both gradients and the per-step PGD loop
are kept in the tests as the bit-exact references.

A dataset is attacked in chunks sized by bytes (adversarial_chunks), so an
attack's temporaries are reused from the heap rather than mapped afresh.
adversarial_chunks and robust_accuracy take one model or a list of models
of one architecture, and attack a list in one pass, each model byte for
byte as alone: two or more linear models under l-inf share two iterates
per chunk, of the steps +alpha and -alpha, and select their rows from
them (_shared_linf_attack).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .dataset import Dataset
from .errors import ContractError, DataError, NonFiniteError, ParameterError
from .models import LinearClassifier, mlp_input_gradient, same_architecture

LINF = "linf"
L2 = "l2"
CHUNK_BYTES = 120 * 1024  # feature bytes per pgd_attack call over a dataset: under glibc's 128 KiB mmap threshold
ROW_BLOCK = 16  # chunks are whole blocks of this many rows when one fits (see adversarial_chunks)


@dataclass
class AttackConfig:
    norm: str = LINF
    eps: float = 0.1
    alpha: Optional[float] = None  # defaults to eps / 10
    steps: int = 10
    clamp: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.norm not in (LINF, L2):
            raise ParameterError(f"norm must be '{LINF}' or '{L2}', got {self.norm!r}")
        if not 0 < self.eps < np.inf:
            raise ParameterError(f"eps must be positive and finite, got {self.eps}")
        if self.alpha is None:
            self.alpha = self.eps / 10.0
        if not 0 < self.alpha < np.inf:
            raise ParameterError(f"alpha must be positive and finite, got {self.alpha}")
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")
        if self.clamp is not None and not self.clamp[0] <= self.clamp[1]:
            raise ParameterError(f"invalid clamp {self.clamp}")

    def with_eps(self, eps: float) -> "AttackConfig":
        return replace(self, eps=eps, alpha=None)


def attack_for_dataset(cfg: AttackConfig, dataset: Dataset) -> AttackConfig:
    """Attack config with the dataset's value range as the clamp, if any.

    A configured clamp must lie inside the value range: rows clamped to a
    wider box would leave the dataset's feasible set.
    """
    vr = dataset.value_range
    if cfg.clamp is None and vr is not None:
        return replace(cfg, clamp=vr)
    if cfg.clamp is not None and vr is not None and not vr[0] <= cfg.clamp[0] <= cfg.clamp[1] <= vr[1]:
        raise ParameterError(f"attack clamp {cfg.clamp} is not inside the value range {vr}")
    return cfg


def _row_norms(x: np.ndarray) -> np.ndarray:
    if x.ndim == 1:
        return np.linalg.norm(x)
    return np.linalg.norm(x, axis=1, keepdims=True)


def project_to_ball(x: np.ndarray, center: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    """Project onto the threat ball around `center`, then into the value range."""
    x = np.asarray(x, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    if x.shape != center.shape:
        raise ContractError(f"shape mismatch {x.shape} vs {center.shape}")
    if cfg.norm == LINF:
        out = np.clip(x, center - cfg.eps, center + cfg.eps)
    else:
        offset = x - center
        norms = _row_norms(offset)
        scale = np.where(norms > cfg.eps, cfg.eps / np.maximum(norms, 1e-300), 1.0)
        out = center + offset * scale
    if cfg.clamp is not None:
        out = np.clip(out, cfg.clamp[0], cfg.clamp[1])
    return out


def attack_gradient(model, params_arrays, X: np.ndarray, y: np.ndarray, network=None) -> np.ndarray:
    """Per-row gradient of the model's attack objective w.r.t. the inputs; `y` is model.targets(labels).

    A linear model's rows -y*w (y = +-1) are gathered from -w and +w rather
    than formed as an N x d outer product: the same products, so the same bits.
    A network's comes from `network`, the models.mlp_input_gradient that
    pgd_attack prepares once for all of an attack's steps, or, without one,
    from one prepared for this call. Either returns a fresh array.
    """
    if isinstance(model, LinearClassifier):
        # d/dX of the unclamped surrogate -sum(y * (X @ w)) is -y w^T, whatever X is
        if len(params_arrays) != 1:
            raise ParameterError(f"the linear classifier has one weight vector, got {len(params_arrays)} arrays")
        (w,) = params_arrays
        if not (np.isfinite(X).all() and np.isfinite(w).all()):
            raise NonFiniteError("tensor contains NaN or Inf")
        rows = np.take(np.outer([-1.0, 1.0], w), (np.asarray(y) < 0).astype(np.intp), axis=0)
        return rows.reshape(np.shape(X))
    return (network or mlp_input_gradient(params_arrays, y, len(X)))(X)


def _ascent_step(g: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    if cfg.norm == LINF:
        return cfg.alpha * np.sign(g)
    norms = _row_norms(g)
    return cfg.alpha * np.divide(g, norms, out=np.zeros_like(g), where=norms > 0)


def _project_linf(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, cfg: AttackConfig) -> None:
    """In place: clip to the l-inf ball [lo, hi], then to the clamp if one is set.

    The ball clip is np.maximum then np.minimum, which differ from np.clip only
    where x equals a bound as zeros of opposite sign. No -0.0 reaches it: an
    l-inf step is alpha * sign(g) and np.sign never returns -0.0, so x + step
    is -0.0 only if both are, and x_nat +- eps is not -0.0 for eps > 0. The
    clamp's bounds are configured and may be -0.0, where np.clip(+0.0, -0.0,
    -0.0) keeps +0.0 and max/min would give -0.0, so the clamp keeps np.clip.
    """
    np.maximum(x, lo, out=x)
    np.minimum(x, hi, out=x)
    if cfg.clamp is not None:
        np.clip(x, cfg.clamp[0], cfg.clamp[1], out=x)


def _linear_linf_pgd(x_nat: np.ndarray, step: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    """cfg.steps projected steps of a constant l-inf step, with one projection, or two.

    P (ball clip, then clamp) clips to an interval, or is constant where ball and
    box do not meet. x_1 = P(x_nat + step) is projected, before more adds, only
    under a clamp or alpha > eps; else P does nothing to it, as x_nat +- alpha
    lies in [fl(x_nat - eps), fl(x_nat + eps)] by monotone rounding. Per
    coordinate the step has one sign and float addition is monotone, so an
    iterate past a bound stays past it: P(P(z) + step) == P(z + step), also where
    ball and box do not meet and for an overflowing sum. So x_K = P(x_1 + K-1
    adds) bit for bit, and as a non-finite iterate stays so, checking x_K suffices.
    """
    lo, hi = x_nat - cfg.eps, x_nat + cfg.eps
    x_adv = x_nat + step  # a new array: x_nat is never written
    if cfg.steps > 1 and (cfg.clamp is not None or cfg.alpha > cfg.eps):
        _project_linf(x_adv, lo, hi, cfg)
    for _ in range(cfg.steps - 1):
        x_adv += step
    _project_linf(x_adv, lo, hi, cfg)
    return x_adv


def pgd_attack(model, x_nat: np.ndarray, y: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    """Iterative ascent on the attack objective inside the threat ball, from the natural point.

    A linear model's step is computed once per call. Under l-inf the attack is
    one pass (_linear_linf_pgd); under l2 every iterate is projected. A
    network's gradient is prepared once per call (models.mlp_input_gradient:
    the parameter check, the one-hot targets and the scratch arrays), and
    each step's attack_gradient call checks the iterate it is taken at. The
    returned iterate is checked finite: a non-finite iterate stays
    non-finite under either projection, so an attack that overflows anywhere
    raises NonFiniteError. numpy's floating-point warnings are silenced, and
    that error is the only report.
    """
    x_nat = np.asarray(x_nat, dtype=np.float64)
    y = model.targets(np.asarray(y))
    params, linear = model.params(), isinstance(model, LinearClassifier)
    with np.errstate(all="ignore"):
        if linear and cfg.norm == LINF:
            x_adv = _linear_linf_pgd(x_nat, _ascent_step(attack_gradient(model, params, x_nat, y), cfg), cfg)
        else:
            lo, hi = (x_nat - cfg.eps, x_nat + cfg.eps) if cfg.norm == LINF else (None, None)
            network = None if linear else mlp_input_gradient(params, y, len(x_nat))
            x_adv, step = x_nat, None
            for _ in range(cfg.steps):
                if step is None or not linear:
                    step = _ascent_step(attack_gradient(model, params, x_adv, y, network), cfg)
                x_adv = x_adv + step  # a new array: x_nat is never written
                if cfg.norm == LINF:
                    _project_linf(x_adv, lo, hi, cfg)
                else:
                    x_adv = project_to_ball(x_adv, x_nat, cfg)
    if not np.isfinite(x_adv).all():
        raise NonFiniteError("tensor contains NaN or Inf")
    return x_adv


def _shared_linf_attack(models: list, cfg: AttackConfig):
    """Each linear model's l-inf attack on a chunk, made from iterates that every model shares.

    A model's step is alpha * sign(-y*w) per element, so +alpha, -alpha or +0.0
    (np.sign never gives -0.0), and _linear_linf_pgd works element by element
    on (x_nat, step) with bounds from x_nat alone. So the iterates of the scalar
    steps +alpha and -alpha hold, per element, the bits of any model's attack
    there, and a model's rows are np.where(table[y < 0], up, down), with the
    table sign(-+w) > 0 gathered by label. The +0.0 step's iterate is made only
    when some w has an exact zero. Each w is checked finite once, each chunk's
    rows once (a clamp would clip an infinite row to a finite one), and each
    model's selected rows, so an overflowing iterate that no model selects
    does not raise.
    """
    ws = [m.w for m in models]
    if not all(np.isfinite(w).all() for w in ws):
        raise NonFiniteError("tensor contains NaN or Inf")
    tables = [np.outer([-1.0, 1.0], w) > 0 for w in ws]  # row 0 for y = +1, row 1 for y = -1
    zeros = [w == 0 for w in ws]
    any_zero = any(z.any() for z in zeros)

    def attack(x_nat: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        if not np.isfinite(x_nat).all():
            raise NonFiniteError("tensor contains NaN or Inf")
        with np.errstate(all="ignore"):
            up, down = _linear_linf_pgd(x_nat, cfg.alpha, cfg), _linear_linf_pgd(x_nat, -cfg.alpha, cfg)
            zero = _linear_linf_pgd(x_nat, 0.0, cfg) if any_zero else None
        pick = (y < 0).astype(np.intp)
        out = []
        for table, z in zip(tables, zeros):
            x_adv = np.where(table[pick], up, down)
            if zero is not None:
                np.copyto(x_adv, zero, where=z)
            if not np.isfinite(x_adv).all():
                raise NonFiniteError("tensor contains NaN or Inf")
            out.append(x_adv)
        return out

    return attack


def adversarial_chunks(model, dataset: Dataset, cfg: AttackConfig) -> Iterator:
    """(x_adv, targets) of chunks of rows attacked inside the dataset's value range.

    Given a list of models of one architecture, x_adv is a list with each
    model's rows, byte for byte those it gets alone. Two or more linear models
    under l-inf share two iterates per chunk (_shared_linf_attack); otherwise
    each model runs pgd_attack on the chunk. An empty list, or models of
    different families or shapes, is a ParameterError.

    A chunk's float64 feature block fits CHUNK_BYTES, so each attack's row-sized
    temporaries (the iterate, the ball bounds, the step, the gradient) stay
    below glibc's mmap threshold: they are reused from the heap, and stay in
    cache, instead of being mapped and unmapped on every attack. A chunk is
    the most whole ROW_BLOCK-row blocks that fit, or the most rows that fit
    (at least one) when no block does. Linear attacks and l-inf network
    attacks do not depend on the chunk size. An l2 network step scales with
    the gradient, whose last bits BLAS may round by a row's place in its
    matmul block: whole blocks keep every row where 4096-row chunks put it,
    so small networks keep those bits (wide ones may not; see the README).
    Labels are converted once. An empty dataset is a DataError.
    """
    models = model if isinstance(model, list) else [model]
    if not same_architecture(models):
        raise ParameterError("a lock-step attack takes a non-empty list of models of one architecture")
    if dataset.n == 0:
        raise DataError("cannot attack an empty dataset")
    cfg = attack_for_dataset(cfg, dataset)
    targets = models[0].targets(dataset.labels)
    fit = CHUNK_BYTES // (8 * max(1, dataset.width))
    rows = fit - fit % ROW_BLOCK if fit >= ROW_BLOCK else max(1, fit)
    if len(models) > 1 and isinstance(models[0], LinearClassifier) and cfg.norm == LINF:
        attack = _shared_linf_attack(models, cfg)
    else:
        def attack(x, y):
            return [pgd_attack(m, x, y, cfg) for m in models]
    for start in range(0, dataset.n, rows):
        y = targets[start : start + rows]
        x_adv = attack(dataset.features[start : start + rows], y)
        yield (x_adv if isinstance(model, list) else x_adv[0]), y


def robust_accuracy(model, dataset: Dataset, cfg: AttackConfig):
    """Accuracy on per-point PGD adversarial examples inside the dataset's value range.

    Given a list of models of one architecture, one accuracy per model, each
    the model's alone; one pass over the dataset attacks them all.
    """
    models = model if isinstance(model, list) else [model]
    correct = [0] * len(models)
    for x_advs, y in adversarial_chunks(models, dataset, cfg):
        for i, (m, x_adv) in enumerate(zip(models, x_advs)):
            correct[i] += int(np.sum(m.predict(x_adv) == y))
    accuracies = [c / dataset.n for c in correct]
    return accuracies if isinstance(model, list) else accuracies[0]


def closed_form_linear_robust_accuracy(model: LinearClassifier, dataset: Dataset, eps: float) -> float:
    """Exact worst-case l-infinity accuracy of a linear model (Holder bound)."""
    y = model.targets(dataset.labels).astype(np.float64)
    worst_margins = y * (dataset.features @ model.w) - eps * np.abs(model.w).sum()
    return float(np.mean(worst_margins > 0))
